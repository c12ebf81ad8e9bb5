//! Gaussian Mixture Model fitting by Expectation-Maximization (paper
//! §IV.A.2, Equation (15)) with full per-cluster covariance matrices, as a
//! PRS application.
//!
//! Map = E-step over a block of points (responsibilities via Cholesky
//! solves and log-sum-exp), emitting per-cluster sufficient statistics
//! (Σγ, Σγ·x, Σγ·xxᵀ). Reduce aggregates statistics; the iterative update
//! is the M-step. Convergence on the relative log-likelihood change.

use crate::common::par_block_fold;
use parking_lot::RwLock;
use prs_core::{DeviceClass, IterativeApp, Key, SpmdApp};
use prs_data::matrix::MatrixF32;
use prs_data::rng::SplitMix64;
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

const CHUNK: usize = 1024;
const COV_REGULARIZATION: f64 = 1e-6;

/// In-place Cholesky factorization of a symmetric positive-definite
/// `d × d` matrix (row-major); on success the lower triangle holds `L`
/// with `A = L·Lᵀ`. Fails on non-positive-definite input.
pub fn cholesky(d: usize, a: &mut [f64]) -> Result<(), String> {
    assert_eq!(a.len(), d * d);
    for j in 0..d {
        let mut diag = a[j * d + j];
        for k in 0..j {
            diag -= a[j * d + k] * a[j * d + k];
        }
        if diag <= 0.0 {
            return Err(format!("matrix not positive definite at pivot {j}"));
        }
        let ljj = diag.sqrt();
        a[j * d + j] = ljj;
        for i in j + 1..d {
            let mut v = a[i * d + j];
            for k in 0..j {
                v -= a[i * d + k] * a[j * d + k];
            }
            a[i * d + j] = v / ljj;
        }
        // Zero the strict upper triangle for cleanliness.
        for i in 0..j {
            a[i * d + j] = 0.0;
        }
    }
    Ok(())
}

/// Solves `L z = b` by forward substitution (`L` lower triangular).
pub fn forward_solve(d: usize, l: &[f64], b: &[f64], z: &mut [f64]) {
    for i in 0..d {
        let mut v = b[i];
        for k in 0..i {
            v -= l[i * d + k] * z[k];
        }
        z[i] = v / l[i * d + i];
    }
}

/// Per-cluster sufficient statistics emitted by the E-step.
#[derive(Debug, Clone, PartialEq)]
pub struct GmmPartial {
    /// Σ γ.
    pub weight: f64,
    /// Σ γ·x (length d).
    pub mean_sum: Vec<f64>,
    /// Σ γ·x xᵀ, packed lower triangle (length d(d+1)/2).
    pub cov_sum: Vec<f64>,
}

impl GmmPartial {
    /// Zeroed statistics of dimension `d`.
    pub fn zero(d: usize) -> Self {
        GmmPartial {
            weight: 0.0,
            mean_sum: vec![0.0; d],
            cov_sum: vec![0.0; d * (d + 1) / 2],
        }
    }

    /// Adds one point with responsibility `g`.
    pub fn add(&mut self, g: f64, x: &[f32]) {
        let d = self.mean_sum.len();
        for (s, &xi) in self.mean_sum.iter_mut().zip(x) {
            *s += g * xi as f64;
        }
        let mut idx = 0;
        for (i, &xi_f32) in x.iter().enumerate().take(d) {
            let xi = xi_f32 as f64;
            for &xj in x.iter().take(i + 1) {
                self.cov_sum[idx] += g * xi * xj as f64;
                idx += 1;
            }
        }
        self.weight += g;
    }

    /// Merges statistics.
    pub fn merge(&mut self, other: &GmmPartial) {
        self.weight += other.weight;
        for (a, b) in self.mean_sum.iter_mut().zip(&other.mean_sum) {
            *a += b;
        }
        for (a, b) in self.cov_sum.iter_mut().zip(&other.cov_sum) {
            *a += b;
        }
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        ((1 + self.mean_sum.len() + self.cov_sum.len()) * 8) as u64
    }
}

struct GmmState {
    weights: Vec<f64>,
    means: Vec<Vec<f64>>,
    /// Lower Cholesky factor of each cluster's covariance (d×d, row-major).
    chol: Vec<Vec<f64>>,
    /// `ln π_m − Σ ln L_ii − (D/2) ln 2π` per cluster.
    log_coeff: Vec<f64>,
    log_likelihood: Vec<f64>,
}

/// GMM/EM on the PRS.
pub struct Gmm {
    points: Arc<MatrixF32>,
    m: usize,
    epsilon: f64,
    state: RwLock<GmmState>,
}

impl Gmm {
    /// Creates a GMM with `m` clusters: means from random points,
    /// identity-scaled covariances, uniform weights.
    pub fn new(points: Arc<MatrixF32>, m: usize, epsilon: f64, seed: u64) -> Self {
        let n = points.rows();
        let d = points.cols();
        assert!(m >= 1 && m < n);
        let mut rng = SplitMix64::new(seed ^ 0x63636D);
        // Data variance per dimension for initial covariance scaling.
        let mut mean = vec![0.0f64; d];
        for i in 0..n {
            for (j, mj) in mean.iter_mut().enumerate() {
                *mj += points.get(i, j) as f64;
            }
        }
        for mj in &mut mean {
            *mj /= n as f64;
        }
        let mut var = vec![0.0f64; d];
        for i in 0..n {
            for (j, vj) in var.iter_mut().enumerate() {
                let dlt = points.get(i, j) as f64 - mean[j];
                *vj += dlt * dlt;
            }
        }
        let avg_var = (var.iter().sum::<f64>() / (n as f64 * d as f64)).max(1e-3);

        let means: Vec<Vec<f64>> = (0..m)
            .map(|_| {
                let idx = rng.next_below(n as u64) as usize;
                points.row(idx).iter().map(|&v| v as f64).collect()
            })
            .collect();
        let mut chol = Vec::with_capacity(m);
        let mut log_coeff = Vec::with_capacity(m);
        let ln2pi = (2.0 * std::f64::consts::PI).ln();
        for _ in 0..m {
            let mut c = vec![0.0f64; d * d];
            let sd = avg_var.sqrt();
            for i in 0..d {
                c[i * d + i] = sd;
            }
            let log_det_half: f64 = (0..d).map(|i| c[i * d + i].ln()).sum();
            log_coeff.push((1.0 / m as f64).ln() - log_det_half - 0.5 * d as f64 * ln2pi);
            chol.push(c);
        }
        Gmm {
            points,
            m,
            epsilon,
            state: RwLock::new(GmmState {
                weights: vec![1.0 / m as f64; m],
                means,
                chol,
                log_coeff,
                log_likelihood: Vec::new(),
            }),
        }
    }

    /// Number of mixture components.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Current mixture weights π.
    pub fn weights(&self) -> Vec<f64> {
        self.state.read().weights.clone()
    }

    /// Current component means.
    pub fn means(&self) -> Vec<Vec<f64>> {
        self.state.read().means.clone()
    }

    /// Log-likelihood after each iteration.
    pub fn log_likelihood_history(&self) -> Vec<f64> {
        self.state.read().log_likelihood.clone()
    }

    /// Responsibilities of `x` under the current model plus its
    /// log-likelihood contribution.
    fn responsibilities(
        d: usize,
        m: usize,
        means: &[Vec<f64>],
        chol: &[Vec<f64>],
        log_coeff: &[f64],
        x: &[f32],
        scratch: &mut (Vec<f64>, Vec<f64>, Vec<f64>),
    ) -> f64 {
        let (diff, z, logp) = scratch;
        for c in 0..m {
            for (j, dj) in diff.iter_mut().enumerate() {
                *dj = x[j] as f64 - means[c][j];
            }
            forward_solve(d, &chol[c], diff, z);
            let q: f64 = z.iter().map(|v| v * v).sum();
            logp[c] = log_coeff[c] - 0.5 * q;
        }
        // Log-sum-exp.
        let maxp = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = logp.iter().map(|&p| (p - maxp).exp()).sum();
        let lse = maxp + sum.ln();
        // Convert logp in place into responsibilities.
        for p in logp.iter_mut() {
            *p = (*p - lse).exp();
        }
        lse
    }

    /// E-step statistics for a block, plus its log-likelihood.
    fn block_stats(&self, range: Range<usize>) -> (Vec<GmmPartial>, f64) {
        let (means, chol, log_coeff) = {
            let s = self.state.read();
            (s.means.clone(), s.chol.clone(), s.log_coeff.clone())
        };
        let d = self.points.cols();
        let m = self.m;
        let points = self.points.clone();
        par_block_fold(
            range,
            CHUNK,
            move |chunk| {
                let mut stats = vec![GmmPartial::zero(d); m];
                let mut ll = 0.0;
                let mut scratch = (vec![0.0; d], vec![0.0; d], vec![0.0; m]);
                for i in chunk {
                    let x = points.row(i);
                    ll += Self::responsibilities(
                        d,
                        m,
                        &means,
                        &chol,
                        &log_coeff,
                        x,
                        &mut scratch,
                    );
                    for (c, stat) in stats.iter_mut().enumerate() {
                        let g = scratch.2[c];
                        if g > 1e-12 {
                            stat.add(g, x);
                        }
                    }
                }
                (stats, ll)
            },
            (vec![GmmPartial::zero(d); m], 0.0),
            |(mut acc, all), (part, pll)| {
                for (a, p) in acc.iter_mut().zip(&part) {
                    a.merge(p);
                }
                (acc, all + pll)
            },
        )
    }

    fn obj_key(&self) -> Key {
        self.m as Key
    }
}

impl SpmdApp for Gmm {
    type Inter = GmmPartial;
    type Output = GmmPartial;

    fn num_items(&self) -> usize {
        self.points.rows()
    }

    fn item_bytes(&self) -> u64 {
        4 * self.points.cols() as u64
    }

    fn workload(&self) -> Workload {
        // Table 5: GMM arithmetic intensity is 11·M·D flops/byte, resident.
        let d = self.points.cols() as f64;
        Workload::uniform(11.0 * self.m as f64 * d, DataResidency::Resident)
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, GmmPartial)> {
        let (stats, ll) = self.block_stats(range);
        // Sized for the log-likelihood entry too, as `Centers::cpu_map` is.
        let mut out = Vec::with_capacity(stats.len() + 1);
        out.extend(stats.into_iter().enumerate().map(|(c, s)| (c as Key, s)));
        let mut llp = GmmPartial::zero(1);
        llp.weight = ll;
        out.push((self.obj_key(), llp));
        out
    }

    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, GmmPartial)> {
        self.cpu_map(node, range)
    }

    fn reduce(&self, _d: DeviceClass, _key: Key, values: Vec<GmmPartial>) -> GmmPartial {
        let mut acc = values[0].clone();
        for v in &values[1..] {
            acc.merge(v);
        }
        acc
    }

    fn combine(&self, _key: Key, values: Vec<GmmPartial>) -> Vec<GmmPartial> {
        let mut acc = values[0].clone();
        for v in &values[1..] {
            acc.merge(v);
        }
        vec![acc]
    }

    fn inter_bytes(&self, value: &GmmPartial) -> u64 {
        value.wire_bytes()
    }

    fn output_bytes(&self, value: &GmmPartial) -> u64 {
        value.wire_bytes()
    }
}

impl IterativeApp for Gmm {
    fn update(&self, outputs: &[(Key, GmmPartial)]) -> bool {
        let n = self.points.rows() as f64;
        let d = self.points.cols();
        let ln2pi = (2.0 * std::f64::consts::PI).ln();
        let mut state = self.state.write();
        let mut ll = 0.0;
        for (key, stat) in outputs {
            let c = *key as usize;
            if c == self.m {
                ll = stat.weight;
                continue;
            }
            let w = stat.weight;
            if w <= 1e-9 {
                continue; // dead component: keep previous parameters
            }
            let pi = w / n;
            let mu: Vec<f64> = stat.mean_sum.iter().map(|s| s / w).collect();
            // Covariance = E[xxᵀ] − μμᵀ + εI.
            let mut cov = vec![0.0f64; d * d];
            let mut idx = 0;
            for i in 0..d {
                for j in 0..=i {
                    let v = stat.cov_sum[idx] / w - mu[i] * mu[j];
                    cov[i * d + j] = v;
                    cov[j * d + i] = v;
                    idx += 1;
                }
            }
            for i in 0..d {
                cov[i * d + i] += COV_REGULARIZATION;
            }
            if cholesky(d, &mut cov).is_ok() {
                let log_det_half: f64 = (0..d).map(|i| cov[i * d + i].ln()).sum();
                state.weights[c] = pi;
                state.means[c] = mu;
                state.chol[c] = cov;
                state.log_coeff[c] = pi.ln() - log_det_half - 0.5 * d as f64 * ln2pi;
            }
        }
        let converged = match state.log_likelihood.last() {
            Some(&prev) => (ll - prev).abs() < self.epsilon * prev.abs().max(1.0),
            None => false,
        };
        state.log_likelihood.push(ll);
        converged
    }
}

/// Single-threaded reference EM (same math, no runtime).
pub fn serial_gmm(
    points: &Arc<MatrixF32>,
    m: usize,
    epsilon: f64,
    seed: u64,
    max_iters: usize,
) -> (Gmm, Vec<f64>) {
    let app = Gmm::new(points.clone(), m, epsilon, seed);
    let n = points.rows();
    for _ in 0..max_iters {
        let pairs = app.cpu_map(0, 0..n);
        let mut merged: std::collections::BTreeMap<Key, GmmPartial> =
            std::collections::BTreeMap::new();
        for (k, v) in pairs {
            merged
                .entry(k)
                .and_modify(|acc| acc.merge(&v))
                .or_insert(v);
        }
        let outs: Vec<(Key, GmmPartial)> = merged.into_iter().collect();
        if app.update(&outs) {
            break;
        }
    }
    let history = app.log_likelihood_history();
    (app, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_data::gaussian::{Component, MixtureSpec};

    fn two_gaussians(n: usize) -> Arc<MatrixF32> {
        let spec = MixtureSpec {
            components: vec![
                Component {
                    weight: 0.7,
                    mean: vec![0.0, 0.0],
                    stddev: vec![1.0, 1.0],
                },
                Component {
                    weight: 0.3,
                    mean: vec![10.0, 10.0],
                    stddev: vec![1.5, 0.5],
                },
            ],
        };
        Arc::new(prs_data::generate(&spec, n, 21).points)
    }

    #[test]
    fn cholesky_of_known_matrix() {
        // A = [[4, 2], [2, 5]] -> L = [[2, 0], [1, 2]].
        let mut a = vec![4.0, 2.0, 2.0, 5.0];
        cholesky(2, &mut a).unwrap();
        assert!((a[0] - 2.0).abs() < 1e-12);
        assert!((a[2] - 1.0).abs() < 1e-12);
        assert!((a[3] - 2.0).abs() < 1e-12);
        assert_eq!(a[1], 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(cholesky(2, &mut a).is_err());
    }

    #[test]
    fn forward_solve_inverts_lower_triangular() {
        let l = vec![2.0, 0.0, 1.0, 3.0];
        let mut z = vec![0.0; 2];
        forward_solve(2, &l, &[4.0, 11.0], &mut z);
        assert!((z[0] - 2.0).abs() < 1e-12);
        assert!((z[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn partial_add_merge_consistency() {
        let mut a = GmmPartial::zero(2);
        a.add(0.5, &[1.0, 2.0]);
        let mut b = GmmPartial::zero(2);
        b.add(1.5, &[3.0, 1.0]);
        let mut m = a.clone();
        m.merge(&b);
        let mut direct = GmmPartial::zero(2);
        direct.add(0.5, &[1.0, 2.0]);
        direct.add(1.5, &[3.0, 1.0]);
        assert_eq!(m, direct);
        // Packed cov: [x0², x0x1 (lower), x1²] accumulated.
        assert_eq!(m.cov_sum.len(), 3);
    }

    #[test]
    fn responsibilities_sum_to_one() {
        let pts = two_gaussians(200);
        let app = Gmm::new(pts.clone(), 2, 1e-6, 5);
        let s = app.state.read();
        let d = pts.cols();
        let mut scratch = (vec![0.0; d], vec![0.0; d], vec![0.0; 2]);
        for i in 0..10 {
            Gmm::responsibilities(
                d,
                2,
                &s.means,
                &s.chol,
                &s.log_coeff,
                pts.row(i),
                &mut scratch,
            );
            let sum: f64 = scratch.2.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "point {i}: {sum}");
        }
    }

    #[test]
    fn log_likelihood_is_nondecreasing() {
        let pts = two_gaussians(1000);
        let (_, history) = serial_gmm(&pts, 2, 1e-8, 3, 25);
        assert!(history.len() >= 3);
        for w in history.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6 * w[0].abs(),
                "LL decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn em_recovers_mixture_parameters() {
        let pts = two_gaussians(4000);
        let (app, _) = serial_gmm(&pts, 2, 1e-9, 3, 60);
        let mut weights = app.weights();
        let means = app.means();
        // Identify which fitted component is the (10,10) one.
        let hi = if means[0][0] > means[1][0] { 0 } else { 1 };
        let lo = 1 - hi;
        assert!((means[hi][0] - 10.0).abs() < 0.3, "{:?}", means[hi]);
        assert!((means[hi][1] - 10.0).abs() < 0.3);
        assert!(means[lo][0].abs() < 0.3);
        weights.sort_by(f64::total_cmp);
        assert!((weights[0] - 0.3).abs() < 0.05, "{weights:?}");
        assert!((weights[1] - 0.7).abs() < 0.05);
    }

    #[test]
    fn block_stats_split_merge_consistency() {
        let pts = two_gaussians(600);
        let app = Gmm::new(pts, 2, 1e-6, 7);
        let (whole, ll_whole) = app.block_stats(0..600);
        let (a, ll_a) = app.block_stats(0..250);
        let (b, ll_b) = app.block_stats(250..600);
        for c in 0..2 {
            let mut m = a[c].clone();
            m.merge(&b[c]);
            assert!((m.weight - whole[c].weight).abs() < 1e-6);
        }
        assert!((ll_a + ll_b - ll_whole).abs() < 1e-6 * ll_whole.abs());
    }

    #[test]
    fn workload_matches_table5_formula() {
        let pts = two_gaussians(100);
        let app = Gmm::new(pts, 2, 1e-6, 1);
        // 11 * M * D = 11 * 2 * 2 = 44.
        assert_eq!(app.workload().ai_gpu, 44.0);
    }
}
