//! Fuzzy C-means clustering (paper §IV.A.1, Equations (12)–(14)) as a PRS
//! application.
//!
//! C-means is the [`Fuzzy`] rule over the shared [`Centers`] app: each
//! map task computes membership-weighted partial center sums for a block
//! of points; reduce aggregates partials per cluster; the iterative
//! update recomputes centers (Equation (14)) until they stop moving.
//! (The paper's termination criterion is the max membership change; with
//! centers replicated and memberships recomputed from centers each
//! iteration, the max center shift is an equivalent, memory-light
//! criterion — recorded in DESIGN.md.)

use crate::centers::{Centers, Rule};
use crate::common::{random_centers, serial_iterate, BlockSums, CenterPanel, PanelScratch};
use prs_data::matrix::{sq_dist, MatrixF32};
use std::sync::Arc;

/// Fuzzy C-means on the PRS (Equations (12)–(14)).
pub type CMeans = Centers<Fuzzy>;

/// The C-means rule: every point belongs to every center with its fuzzy
/// membership (Equation (13)), weighted by its `m`-th power.
pub struct Fuzzy {
    fuzzifier: f64,
    exponent: f64,
}

impl CMeans {
    /// Creates a C-means instance with centers initialized from `k`
    /// distinct random points (deterministic in `seed`).
    pub fn new(points: Arc<MatrixF32>, k: usize, fuzzifier: f64, epsilon: f64, seed: u64) -> Self {
        assert!(fuzzifier > 1.0, "fuzzifier m must exceed 1 (paper: M > 1)");
        assert!(epsilon > 0.0);
        let centers = random_centers(&points, k, seed);
        let exponent = membership_exponent(fuzzifier);
        let rule = Fuzzy {
            fuzzifier,
            exponent,
        };
        Centers::with_rule(points, centers, epsilon, rule, ())
    }

    /// Fuzzy memberships of `point` against `centers` (Equation (13)).
    /// A one-point wrapper over the center panel the map task uses.
    pub fn memberships(centers: &MatrixF32, fuzzifier: f64, point: &[f32]) -> Vec<f64> {
        let mut s = CenterPanel::of_point(centers, point);
        fuzzy_memberships(membership_exponent(fuzzifier), &mut s);
        s.u
    }
}

impl Rule for Fuzzy {
    type Schedule = ();
    const CHUNK: usize = 2048;
    // Table 5: C-means arithmetic intensity is 5·M flops/byte.
    const AI_PER_CENTER: f64 = 5.0;
    const OBJECTIVE: bool = true;

    /// Adds u^m·x per cluster and the objective term Σ_j u^m d².
    fn weigh(&self, _: &(), s: &mut PanelScratch, sums: &mut BlockSums) {
        fuzzy_memberships(self.exponent, s);
        for (j, (&uij, &d2)) in s.u.iter().zip(&s.d2).enumerate() {
            let w = uij.powf(self.fuzzifier);
            sums.add(j, w, &s.xf);
            sums.objective += w * d2;
        }
    }

    /// The largest membership; the last one wins a tie.
    fn label(&self, s: &mut PanelScratch) -> usize {
        fuzzy_memberships(self.exponent, s);
        s.u.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap()
    }
}

/// The power the squared distances are raised to in Equation (13).
fn membership_exponent(fuzzifier: f64) -> f64 {
    1.0 / (fuzzifier - 1.0)
}

/// Equation (13) on a filled scratch: `s.d2` → memberships in `s.u`.
/// u_ij = 1 / Σ_c (d_ij²/d_ic²)^(1/(m-1)), computed via inverse powers
/// for stability; `s.d2` is left intact for the objective.
fn fuzzy_memberships(exponent: f64, s: &mut PanelScratch) {
    let (d2, u) = (&s.d2, &mut s.u);
    // A point sitting exactly on a center belongs to it fully.
    if let Some(hit) = d2.iter().position(|&d| d == 0.0) {
        u.fill(0.0);
        u[hit] = 1.0;
        return;
    }
    if exponent == 1.0 {
        // Fuzzifier 2: `x.powf(1.0)` is `x` bit for bit (pinned by
        // `powf_one_is_the_identity`), so the libm call is skipped.
        u.copy_from_slice(d2);
    } else {
        for (p, &d) in u.iter_mut().zip(d2) {
            *p = d.powf(exponent);
        }
    }
    let inv_sum: f64 = u.iter().map(|&p| 1.0 / p).sum();
    for p in u.iter_mut() {
        *p = 1.0 / (*p * inv_sum);
    }
}

/// Equation (13) the naive way — one `sq_dist` per center, one `Vec` per
/// point. Deliberately *not* the center panel: `serial_cmeans` is the
/// independent formulation the panel is checked against.
fn serial_memberships(centers: &MatrixF32, fuzzifier: f64, point: &[f32]) -> Vec<f64> {
    let k = centers.rows();
    let mut d2: Vec<f64> = (0..k).map(|j| sq_dist(point, centers.row(j))).collect();
    if let Some(hit) = d2.iter().position(|&d| d == 0.0) {
        let mut u = vec![0.0; k];
        u[hit] = 1.0;
        return u;
    }
    let exponent = 1.0 / (fuzzifier - 1.0);
    for d in &mut d2 {
        *d = d.powf(exponent);
    }
    let inv_sum: f64 = d2.iter().map(|&d| 1.0 / d).sum();
    d2.iter().map(|&d| 1.0 / (d * inv_sum)).collect()
}

/// Single-threaded reference implementation (no runtime, no simulation) —
/// ground truth for the PRS version and the Table-3 baselines.
pub fn serial_cmeans(
    points: &MatrixF32,
    k: usize,
    fuzzifier: f64,
    epsilon: f64,
    seed: u64,
    max_iters: usize,
) -> (MatrixF32, Vec<f64>) {
    let centers = random_centers(points, k, seed);
    serial_iterate(points, centers, epsilon, max_iters, |centers, x, partials, obj| {
        let u = serial_memberships(centers, fuzzifier, x);
        for (j, &uij) in u.iter().enumerate() {
            let w = uij.powf(fuzzifier);
            partials[j].add(w, x);
            *obj += w * sq_dist(x, centers.row(j));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centers::tests::{assert_checkpoint_round_trips, step};
    use crate::common::ClusterPartial;
    use prs_core::{DeviceClass, IterativeApp, Key, SpmdApp};
    use prs_data::gaussian::MixtureSpec;
    use roofline::model::DataResidency;

    fn well_separated(n: usize) -> Arc<MatrixF32> {
        let spec = MixtureSpec::ring(3, 2, 50.0, 1.0);
        Arc::new(prs_data::generate(&spec, n, 42).points)
    }

    #[test]
    fn checkpoint_state_round_trips_bit_for_bit() {
        let pts = well_separated(60);
        let app = CMeans::new(pts.clone(), 3, 2.0, 1e-4, 9);
        // Two real updates, so every field is non-trivial.
        step(&app);
        step(&app);
        assert_checkpoint_round_trips(&app, CMeans::new(pts, 3, 2.0, 1e-4, 1));
    }

    /// `fuzzy_memberships` skips `powf` when the exponent is exactly 1
    /// (fuzzifier 2). That is bit-exact only while the platform's `pow`
    /// returns `x` for `pow(x, 1.0)`; a libm that does not must fail
    /// here, loudly, not in a golden file three crates away.
    #[test]
    fn powf_one_is_the_identity() {
        // Opaque to the optimiser, which would fold `x.powf(1.0)` itself.
        let one = std::hint::black_box(1.0f64);
        let check = |x: f64| {
            assert_eq!(
                x.powf(one).to_bits(),
                x.to_bits(),
                "pow({x:e}, 1.0) != {x:e}"
            );
        };
        for edge in [
            0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ] {
            check(edge);
        }
        let mut rng = prs_data::rng::SplitMix64::new(0x504F_5746);
        for i in 0..1_000_000u32 {
            if i % 2 == 0 {
                // Any non-negative finite bit pattern: every binade,
                // subnormals included.
                let x = f64::from_bits(rng.next_u64() >> 1);
                if x.is_finite() {
                    check(x);
                }
            } else {
                // The magnitudes squared distances actually take.
                check(rng.next_f64() * 1e4);
            }
        }
    }

    #[test]
    fn memberships_sum_to_one() {
        let centers = MatrixF32::from_vec(3, 1, vec![0.0, 5.0, 10.0]);
        let u = CMeans::memberships(&centers, 2.0, &[3.0]);
        let sum: f64 = u.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Closest center gets the largest membership.
        assert!(u[1] > u[0] && u[1] > u[2]);
    }

    #[test]
    fn membership_on_center_is_crisp() {
        let centers = MatrixF32::from_vec(2, 1, vec![0.0, 5.0]);
        let u = CMeans::memberships(&centers, 2.0, &[5.0]);
        assert_eq!(u, vec![0.0, 1.0]);
    }

    #[test]
    fn serial_objective_is_nonincreasing() {
        let pts = well_separated(600);
        let (_, history) = serial_cmeans(&pts, 3, 2.0, 1e-4, 7, 30);
        assert!(history.len() >= 2);
        for w in history.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-9),
                "objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn serial_recovers_ring_centers() {
        let pts = well_separated(1500);
        let (centers, _) = serial_cmeans(&pts, 3, 2.0, 1e-4, 7, 100);
        // Every true center (ring radius 50) has a found center within 2.
        for angle_idx in 0..3 {
            let angle = 2.0 * std::f64::consts::PI * angle_idx as f64 / 3.0;
            let truth = [50.0 * angle.cos(), 50.0 * angle.sin()];
            let best = (0..3)
                .map(|j| {
                    let c = centers.row(j);
                    ((c[0] as f64 - truth[0]).powi(2) + (c[1] as f64 - truth[1]).powi(2)).sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            assert!(best < 2.0, "center {angle_idx} missed by {best}");
        }
    }

    #[test]
    fn block_partials_match_whole_range_split() {
        let pts = well_separated(500);
        let app = CMeans::new(pts, 3, 2.0, 1e-4, 9);
        let (whole, obj_whole) = app.block_partials(0..500);
        let (a, obj_a) = app.block_partials(0..200);
        let (b, obj_b) = app.block_partials(200..500);
        for j in 0..3 {
            let mut merged = a[j].clone();
            merged.merge(&b[j]);
            assert!((merged.weight - whole[j].weight).abs() < 1e-9);
            for (x, y) in merged.weighted_sum.iter().zip(&whole[j].weighted_sum) {
                assert!((x - y).abs() < 1e-6);
            }
        }
        assert!((obj_a + obj_b - obj_whole).abs() < 1e-6 * obj_whole.abs().max(1.0));
    }

    #[test]
    fn update_moves_centers_and_records_objective() {
        let pts = well_separated(300);
        let app = CMeans::new(pts.clone(), 3, 2.0, 1e-6, 3);
        let outputs: Vec<(Key, ClusterPartial)> = app
            .cpu_map(0, 0..300)
            .into_iter()
            .map(|(k, v)| (k, app.reduce(DeviceClass::Cpu, k, vec![v])))
            .collect();
        let converged = app.update(&outputs);
        assert!(!converged, "one step from random init should not converge");
        assert_eq!(app.objective_history().len(), 1);
        assert!(app.objective_history()[0] > 0.0);
        assert_ne!(app.centers(), CMeans::new(pts, 3, 2.0, 1e-6, 3).centers());
    }

    #[test]
    fn harden_labels_are_valid() {
        let pts = well_separated(200);
        let app = CMeans::new(pts.clone(), 3, 2.0, 1e-4, 5);
        let labels = app.labels(&pts);
        assert_eq!(labels.len(), 200);
        assert!(labels.iter().all(|&l| l < 3));
    }

    #[test]
    fn workload_matches_table5() {
        let pts = well_separated(100);
        let app = CMeans::new(pts, 3, 2.0, 1e-4, 1);
        let w = app.workload();
        assert_eq!(w.ai_cpu, 15.0); // 5*M, M=3
        assert_eq!(w.residency, DataResidency::Resident);
    }
}
