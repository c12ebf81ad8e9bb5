//! Synthetic Gaussian-mixture data sets, including a stand-in for the
//! FLAME Lymphocytes flow-cytometry set the paper clusters in Figure 5
//! (20054 points, 4 dimensions, 5 clusters) — see DESIGN.md §2 for the
//! substitution rationale.

use crate::matrix::MatrixF32;
use crate::rng::{SplitMix64, WeightTable};
use serde::{Deserialize, Serialize};

/// One mixture component: a mean and per-dimension standard deviations
/// (axis-aligned covariance, optionally sheared by a rotation factor).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Mixture weight (relative; normalized at sampling time).
    pub weight: f64,
    /// Component mean, length `D`.
    pub mean: Vec<f64>,
    /// Per-dimension standard deviation, length `D`.
    pub stddev: Vec<f64>,
}

/// A Gaussian mixture specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixtureSpec {
    /// The components; all means/stddevs must share one dimensionality.
    pub components: Vec<Component>,
}

impl MixtureSpec {
    /// Dimensionality of the mixture.
    pub fn dims(&self) -> usize {
        self.components[0].mean.len()
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.len()
    }

    /// Validates internal consistency; panics with a description otherwise.
    pub fn validate(&self) {
        assert!(!self.components.is_empty(), "mixture needs components");
        let d = self.dims();
        for (i, c) in self.components.iter().enumerate() {
            assert_eq!(c.mean.len(), d, "component {i} mean dims");
            assert_eq!(c.stddev.len(), d, "component {i} stddev dims");
            assert!(c.weight > 0.0, "component {i} weight must be positive");
            assert!(
                c.stddev.iter().all(|&s| s > 0.0),
                "component {i} stddevs must be positive"
            );
        }
    }

    /// `k` equally weighted spherical components arranged on a ring of
    /// radius `separation` in the first two dimensions — a controllable
    /// easy/hard clustering benchmark.
    pub fn ring(k: usize, dims: usize, separation: f64, stddev: f64) -> Self {
        assert!(k >= 1 && dims >= 2);
        let components = (0..k)
            .map(|i| {
                let angle = 2.0 * std::f64::consts::PI * i as f64 / k as f64;
                let mut mean = vec![0.0; dims];
                mean[0] = separation * angle.cos();
                mean[1] = separation * angle.sin();
                Component {
                    weight: 1.0,
                    mean,
                    stddev: vec![stddev; dims],
                }
            })
            .collect();
        MixtureSpec { components }
    }
}

/// A generated data set: the points plus the ground-truth component of
/// each point.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// `n × d` points.
    pub points: MatrixF32,
    /// Ground-truth component index per point.
    pub labels: Vec<u32>,
    /// The generating specification.
    pub spec: MixtureSpec,
}

/// Samples `n` points from `spec` with the given seed.
pub fn generate(spec: &MixtureSpec, n: usize, seed: u64) -> Dataset {
    spec.validate();
    let d = spec.dims();
    let weights = WeightTable::new(spec.components.iter().map(|c| c.weight).collect());
    let mut rng = SplitMix64::new(seed);
    let mut points = MatrixF32::zeros(n, d);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let k = rng.next_in(&weights);
        let c = &spec.components[k];
        let row = points.row_mut(i);
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = (c.mean[j] + c.stddev[j] * rng.next_normal()) as f32;
        }
        labels.push(k as u32);
    }
    Dataset {
        points,
        labels,
        spec: spec.clone(),
    }
}

/// The Figure-5 stand-in: 20054 points, 4 dimensions, 5 clusters with
/// unequal weights and partially overlapping fuzzy boundaries, mimicking
/// the FLAME Lymphocytes set's structure.
pub fn lymphocytes_like(seed: u64) -> Dataset {
    let spec = MixtureSpec {
        components: vec![
            Component {
                weight: 0.32,
                mean: vec![180.0, 120.0, 60.0, 340.0],
                stddev: vec![52.0, 42.0, 34.0, 56.0],
            },
            Component {
                weight: 0.24,
                mean: vec![260.0, 210.0, 90.0, 300.0],
                stddev: vec![46.0, 50.0, 26.0, 50.0],
            },
            Component {
                weight: 0.20,
                mean: vec![120.0, 260.0, 150.0, 380.0],
                stddev: vec![38.0, 34.0, 38.0, 42.0],
            },
            Component {
                weight: 0.14,
                mean: vec![320.0, 140.0, 200.0, 420.0],
                stddev: vec![42.0, 38.0, 46.0, 34.0],
            },
            Component {
                weight: 0.10,
                mean: vec![220.0, 300.0, 240.0, 260.0],
                stddev: vec![50.0, 46.0, 38.0, 46.0],
            },
        ],
    };
    generate(&spec, 20054, seed)
}

/// The Table-3 / Figure-6 workload generator: `n` points in `d` dimensions
/// drawn from `k` moderately separated clusters (what the paper's C-means
/// timing runs use: e.g. 200k-800k points, D=100, K=10).
pub fn clustering_workload(n: usize, d: usize, k: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix64::new(seed ^ 0xC1u64);
    let components = (0..k)
        .map(|_| {
            let mean: Vec<f64> = (0..d).map(|_| rng.next_f64() * 10.0).collect();
            Component {
                weight: 1.0,
                mean,
                stddev: vec![0.8; d],
            }
        })
        .collect();
    generate(&MixtureSpec { components }, n, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_has_requested_shape() {
        let spec = MixtureSpec::ring(3, 4, 10.0, 0.5);
        let ds = generate(&spec, 500, 1);
        assert_eq!(ds.points.rows(), 500);
        assert_eq!(ds.points.cols(), 4);
        assert_eq!(ds.labels.len(), 500);
        assert!(ds.labels.iter().all(|&l| l < 3));
    }

    /// Every clustering golden and pinned constant downstream hangs off
    /// this stream: the hash was taken on the commit before
    /// `next_weighted` stopped re-summing the weights per draw.
    #[test]
    fn clustering_workload_stream_is_pinned_across_commits() {
        let ds = clustering_workload(5000, 8, 4, 42);
        let bytes = ds
            .points
            .as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .chain(ds.labels.iter().flat_map(|l| l.to_le_bytes()));
        let hash = bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(hash, PINNED_CLUSTERING_5000_8_4_SEED42, "{hash:#x}");
    }

    const PINNED_CLUSTERING_5000_8_4_SEED42: u64 = 0x6217_82d5_1323_e455;

    #[test]
    fn generation_is_deterministic() {
        let spec = MixtureSpec::ring(4, 3, 8.0, 1.0);
        let a = generate(&spec, 200, 9);
        let b = generate(&spec, 200, 9);
        assert_eq!(a.points, b.points);
        assert_eq!(a.labels, b.labels);
        let c = generate(&spec, 200, 10);
        assert_ne!(a.points, c.points);
    }

    #[test]
    fn cluster_means_recoverable() {
        // With large separation the empirical mean of each labeled group
        // must be near its component mean.
        let spec = MixtureSpec::ring(3, 2, 100.0, 1.0);
        let ds = generate(&spec, 6000, 2);
        for (k, comp) in spec.components.iter().enumerate() {
            let members: Vec<usize> = ds
                .labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == k as u32)
                .map(|(i, _)| i)
                .collect();
            assert!(members.len() > 1000);
            for dim in 0..2 {
                let mean: f64 = members
                    .iter()
                    .map(|&i| ds.points.get(i, dim) as f64)
                    .sum::<f64>()
                    / members.len() as f64;
                assert!(
                    (mean - comp.mean[dim]).abs() < 0.5,
                    "component {k} dim {dim}: {mean} vs {}",
                    comp.mean[dim]
                );
            }
        }
    }

    #[test]
    fn lymphocytes_like_matches_paper_shape() {
        let ds = lymphocytes_like(7);
        assert_eq!(ds.points.rows(), 20054);
        assert_eq!(ds.points.cols(), 4);
        assert_eq!(ds.spec.k(), 5);
    }

    #[test]
    fn weights_are_respected() {
        let spec = MixtureSpec {
            components: vec![
                Component {
                    weight: 3.0,
                    mean: vec![0.0],
                    stddev: vec![1.0],
                },
                Component {
                    weight: 1.0,
                    mean: vec![10.0],
                    stddev: vec![1.0],
                },
            ],
        };
        let ds = generate(&spec, 8000, 3);
        let n0 = ds.labels.iter().filter(|&&l| l == 0).count();
        let frac = n0 as f64 / 8000.0;
        assert!((frac - 0.75).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn clustering_workload_shape() {
        let ds = clustering_workload(1000, 100, 10, 4);
        assert_eq!(ds.points.rows(), 1000);
        assert_eq!(ds.points.cols(), 100);
        assert_eq!(ds.spec.k(), 10);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn validate_rejects_zero_weight() {
        let spec = MixtureSpec {
            components: vec![Component {
                weight: 0.0,
                mean: vec![0.0],
                stddev: vec![1.0],
            }],
        };
        spec.validate();
    }
}
