//! Fuzzy C-means clustering (paper §IV.A.1, Equations (12)–(14)) as a PRS
//! application.
//!
//! Each map task computes membership-weighted partial center sums for a
//! block of points; reduce aggregates partials per cluster; the iterative
//! update recomputes centers (Equation (14)) until they stop moving.
//! (The paper's termination criterion is the max membership change; with
//! centers replicated and memberships recomputed from centers each
//! iteration, the max center shift is an equivalent, memory-light
//! criterion — recorded in DESIGN.md.)

use crate::common::{
    max_center_shift, panel_block_fold, panel_labels, random_centers, CenterPanel, ClusterPartial,
    PanelScratch,
};
use parking_lot::RwLock;
use prs_core::{CheckpointableApp, DeviceClass, IterativeApp, Key, SpmdApp};
use prs_data::matrix::{sq_dist, MatrixF32};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

/// Work items processed per rayon chunk inside one map task.
const CHUNK: usize = 2048;

/// Mutable model state, replicated identically on every "node" (shared in
/// one address space here).
struct State {
    centers: MatrixF32,
    objective: Vec<f64>,
    last_shift: f64,
}

/// Fuzzy C-means on the PRS (Equations (12)–(14)).
pub struct CMeans {
    points: Arc<MatrixF32>,
    k: usize,
    fuzzifier: f64,
    epsilon: f64,
    state: RwLock<State>,
}

impl CMeans {
    /// Creates a C-means instance with centers initialized from `k`
    /// distinct random points (deterministic in `seed`).
    pub fn new(points: Arc<MatrixF32>, k: usize, fuzzifier: f64, epsilon: f64, seed: u64) -> Self {
        assert!(k >= 1 && k < points.rows());
        assert!(fuzzifier > 1.0, "fuzzifier m must exceed 1 (paper: M > 1)");
        assert!(epsilon > 0.0);
        let centers = random_centers(&points, k, seed);
        CMeans {
            points,
            k,
            fuzzifier,
            epsilon,
            state: RwLock::new(State {
                centers,
                objective: Vec::new(),
                last_shift: f64::INFINITY,
            }),
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Snapshot of the current cluster centers.
    pub fn centers(&self) -> MatrixF32 {
        self.state.read().centers.clone()
    }

    /// The objective J_m (Equation (12)) after each completed iteration.
    pub fn objective_history(&self) -> Vec<f64> {
        self.state.read().objective.clone()
    }

    /// Max center movement in the last update.
    pub fn last_shift(&self) -> f64 {
        self.state.read().last_shift
    }

    /// Fuzzy memberships of `point` against `centers` (Equation (13)).
    /// A one-point wrapper over the center panel the map task uses.
    pub fn memberships(centers: &MatrixF32, fuzzifier: f64, point: &[f32]) -> Vec<f64> {
        let mut s = CenterPanel::of_point(centers, point);
        fuzzy_memberships(membership_exponent(fuzzifier), &mut s);
        s.u
    }

    /// Hard labels (argmax membership) for a matrix of points.
    pub fn harden(&self, points: &MatrixF32) -> Vec<u32> {
        let exponent = membership_exponent(self.fuzzifier);
        let panel = CenterPanel::new(&self.state.read().centers);
        panel_labels(&panel, points, |s| {
            fuzzy_memberships(exponent, s);
            s.u.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j)
                .unwrap()
        })
    }

    /// Partial sums for a block: per-cluster Σu^m·x and Σu^m, plus the
    /// block's objective contribution Σ_i Σ_j u^m d².
    fn block_partials(&self, range: Range<usize>) -> (Vec<ClusterPartial>, f64) {
        let m = self.fuzzifier;
        let exponent = membership_exponent(m);
        let panel = CenterPanel::new(&self.state.read().centers);
        panel_block_fold(&self.points, &panel, range, CHUNK, |s, sums, obj| {
            fuzzy_memberships(exponent, s);
            for (j, (&uij, &d2)) in s.u.iter().zip(&s.d2).enumerate() {
                let w = uij.powf(m);
                sums.add(j, w, &s.xf);
                *obj += w * d2;
            }
        })
    }

    /// The special key carrying the objective value.
    fn obj_key(&self) -> Key {
        self.k as Key
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

impl SpmdApp for CMeans {
    type Inter = ClusterPartial;
    type Output = ClusterPartial;

    fn num_items(&self) -> usize {
        self.points.rows()
    }

    fn item_bytes(&self) -> u64 {
        4 * self.points.cols() as u64
    }

    fn workload(&self) -> Workload {
        // Table 5: C-means arithmetic intensity is 5·M flops/byte; the
        // event matrix is cached in GPU memory over iterations (resident).
        Workload::uniform(5.0 * self.k as f64, DataResidency::Resident)
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, ClusterPartial)> {
        let (partials, obj) = self.block_partials(range);
        let mut out: Vec<(Key, ClusterPartial)> = partials
            .into_iter()
            .enumerate()
            .map(|(j, p)| (j as Key, p))
            .collect();
        let mut obj_partial = ClusterPartial::zero(1);
        obj_partial.add(obj, &[1.0]);
        out.push((self.obj_key(), obj_partial));
        out
    }

    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, ClusterPartial)> {
        // Same numerics as the CPU flavour (the paper notes CPU and GPU
        // sources are often identical for such kernels).
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

impl IterativeApp for CMeans {
    fn update(&self, outputs: &[(Key, ClusterPartial)]) -> bool {
        let mut state = self.state.write();
        let old = state.centers.clone();
        let mut new_centers = old.clone();
        let mut objective = 0.0;
        for (key, partial) in outputs {
            let j = *key as usize;
            if j == self.k {
                objective = partial.weighted_sum[0];
            } else if let Some(c) = partial.center() {
                for (dst, &v) in new_centers.row_mut(j).iter_mut().zip(&c) {
                    *dst = v as f32;
                }
            }
        }
        let shift = max_center_shift(&old, &new_centers);
        state.centers = new_centers;
        state.objective.push(objective);
        state.last_shift = shift;
        shift < self.epsilon
    }
}

impl CheckpointableApp for CMeans {
    // Everything `update` mutates, bit for bit: center coordinates and
    // the convergence trackers are serialized as raw IEEE-754 bits so a
    // restored run continues from exactly the checkpointed model.
    fn save_state(&self) -> Vec<u8> {
        let st = self.state.read();
        let mut out = Vec::with_capacity(24 + st.centers.len() * 4 + st.objective.len() * 8);
        out.extend_from_slice(&(st.centers.rows() as u64).to_le_bytes());
        out.extend_from_slice(&(st.centers.cols() as u64).to_le_bytes());
        for v in st.centers.as_slice() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(st.objective.len() as u64).to_le_bytes());
        for v in &st.objective {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&st.last_shift.to_bits().to_le_bytes());
        out
    }

    fn restore_state(&self, bytes: &[u8]) {
        let mut at = 0usize;
        let mut take = |n: usize| {
            let s = &bytes[at..at + n];
            at += n;
            s
        };
        let u64_of = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8 bytes"));
        let rows = u64_of(take(8)) as usize;
        let cols = u64_of(take(8)) as usize;
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(f32::from_bits(u32::from_le_bytes(
                take(4).try_into().expect("4 bytes"),
            )));
        }
        let n_obj = u64_of(take(8)) as usize;
        let mut objective = Vec::with_capacity(n_obj);
        for _ in 0..n_obj {
            objective.push(f64::from_bits(u64_of(take(8))));
        }
        let last_shift = f64::from_bits(u64_of(take(8)));
        assert_eq!(at, bytes.len(), "trailing bytes in cmeans checkpoint");
        *self.state.write() = State {
            centers: MatrixF32::from_vec(rows, cols, data),
            objective,
            last_shift,
        };
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
    let d = points.cols();
    let mut centers = random_centers(points, k, seed);
    let mut history = Vec::new();
    for _ in 0..max_iters {
        let mut partials = vec![ClusterPartial::zero(d); k];
        let mut obj = 0.0;
        for i in 0..points.rows() {
            let x = points.row(i);
            let u = serial_memberships(&centers, fuzzifier, x);
            for (j, &uij) in u.iter().enumerate() {
                let w = uij.powf(fuzzifier);
                partials[j].add(w, x);
                obj += w * sq_dist(x, centers.row(j));
            }
        }
        let old = centers.clone();
        for (j, p) in partials.iter().enumerate() {
            if let Some(c) = p.center() {
                for (dst, &v) in centers.row_mut(j).iter_mut().zip(&c) {
                    *dst = v as f32;
                }
            }
        }
        history.push(obj);
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

    fn well_separated(n: usize) -> Arc<MatrixF32> {
        let spec = MixtureSpec::ring(3, 2, 50.0, 1.0);
        Arc::new(prs_data::generate(&spec, n, 42).points)
    }

    #[test]
    fn checkpoint_state_round_trips_bit_for_bit() {
        let pts = well_separated(60);
        let app = CMeans::new(pts.clone(), 3, 2.0, 1e-4, 9);
        // Mutate the state with one real update so every field is
        // non-trivial, then round-trip through the checkpoint codec.
        app.update(&[(0, ClusterPartial::zero(2)), (3, ClusterPartial::zero(2))]);
        let bytes = app.save_state();
        let fresh = CMeans::new(pts, 3, 2.0, 1e-4, 1);
        fresh.restore_state(&bytes);
        assert_eq!(fresh.save_state(), bytes);
        assert_eq!(fresh.centers().as_slice(), app.centers().as_slice());
        assert_eq!(fresh.objective_history(), app.objective_history());
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
        assert!(app.last_shift().is_finite());
    }

    #[test]
    fn harden_labels_are_valid() {
        let pts = well_separated(200);
        let app = CMeans::new(pts.clone(), 3, 2.0, 1e-4, 5);
        let labels = app.harden(&pts);
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
