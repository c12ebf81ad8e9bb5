//! Differential bit-exactness of the center panel (`CenterPanel` in
//! `crates/apps/src/common.rs`): the keyed outputs of `cpu_map` for
//! C-means, K-means and deterministic annealing — and the hard labels —
//! equal, by `to_bits()`, the naive formulation the apps used before the
//! panel: one `sq_dist` per center, `ClusterPartial::add` per point,
//! fixed-size chunks merged in index order. The panel may change layout,
//! never a bit (DESIGN.md, "Kernel numerics contract"). CI runs this in
//! debug and `--release`: the vectorised code is what ships.

use proptest::prelude::*;
use prs_apps::common::ClusterPartial;
use prs_apps::{CMeans, DaKmeans, KMeans};
use prs_core::{IterativeApp, Key, SpmdApp};
use prs_data::matrix::{sq_dist, MatrixF32};
use prs_data::rng::SplitMix64;
use std::ops::Range;
use std::sync::Arc;

/// The apps' private chunk sizes.
const CMEANS_CHUNK: usize = 2048;
const KMEANS_CHUNK: usize = 4096;
const DA_CHUNK: usize = 4096;

// ----------------------------------------------------------------------
// The naive reference: the map-side code of the three apps as it was
// before the panel.
// ----------------------------------------------------------------------

fn naive_fold(
    range: Range<usize>,
    chunk: usize,
    k: usize,
    d: usize,
    mut point: impl FnMut(usize, &mut [ClusterPartial], &mut f64),
) -> (Vec<ClusterPartial>, f64) {
    let mut acc = vec![ClusterPartial::zero(d); k];
    let mut acc_obj = 0.0;
    let mut start = range.start;
    while start < range.end {
        let end = (start + chunk).min(range.end);
        let mut part = vec![ClusterPartial::zero(d); k];
        let mut obj = 0.0;
        for i in start..end {
            point(i, &mut part, &mut obj);
        }
        for (a, p) in acc.iter_mut().zip(&part) {
            a.merge(p);
        }
        acc_obj += obj;
        start = end;
    }
    (acc, acc_obj)
}

fn keyed(partials: Vec<ClusterPartial>, objective: Option<f64>) -> Vec<(Key, ClusterPartial)> {
    let k = partials.len();
    let mut out: Vec<(Key, ClusterPartial)> = partials
        .into_iter()
        .enumerate()
        .map(|(j, p)| (j as Key, p))
        .collect();
    if let Some(obj) = objective {
        let mut p = ClusterPartial::zero(1);
        p.add(obj, &[1.0]);
        out.push((k as Key, p));
    }
    out
}

fn naive_memberships(centers: &MatrixF32, fuzzifier: f64, point: &[f32]) -> Vec<f64> {
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

fn naive_cmeans_map(
    points: &MatrixF32,
    centers: &MatrixF32,
    m: f64,
    range: Range<usize>,
) -> Vec<(Key, ClusterPartial)> {
    let (partials, obj) = naive_fold(
        range,
        CMEANS_CHUNK,
        centers.rows(),
        points.cols(),
        |i, part, obj| {
            let x = points.row(i);
            let u = naive_memberships(centers, m, x);
            for (j, &uij) in u.iter().enumerate() {
                let w = uij.powf(m);
                part[j].add(w, x);
                *obj += w * sq_dist(x, centers.row(j));
            }
        },
    );
    keyed(partials, Some(obj))
}

fn naive_harden(centers: &MatrixF32, m: f64, points: &MatrixF32) -> Vec<u32> {
    (0..points.rows())
        .map(|i| {
            let u = naive_memberships(centers, m, points.row(i));
            u.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j as u32)
                .unwrap()
        })
        .collect()
}

fn naive_nearest(centers: &MatrixF32, point: &[f32]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for j in 0..centers.rows() {
        let d = sq_dist(point, centers.row(j));
        if d < best.1 {
            best = (j, d);
        }
    }
    best
}

fn naive_kmeans_map(
    points: &MatrixF32,
    centers: &MatrixF32,
    range: Range<usize>,
) -> Vec<(Key, ClusterPartial)> {
    let (partials, sse) = naive_fold(
        range,
        KMEANS_CHUNK,
        centers.rows(),
        points.cols(),
        |i, part, sse| {
            let x = points.row(i);
            let (j, dist) = naive_nearest(centers, x);
            part[j].add(1.0, x);
            *sse += dist;
        },
    );
    keyed(partials, Some(sse))
}

fn naive_responsibilities(centers: &MatrixF32, t: f64, point: &[f32]) -> Vec<f64> {
    let k = centers.rows();
    let d2: Vec<f64> = (0..k).map(|j| sq_dist(point, centers.row(j))).collect();
    let min = d2.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut w: Vec<f64> = d2.iter().map(|&v| (-(v - min) / t).exp()).collect();
    let sum: f64 = w.iter().sum();
    for x in &mut w {
        *x /= sum;
    }
    w
}

fn naive_da_map(
    points: &MatrixF32,
    centers: &MatrixF32,
    t: f64,
    range: Range<usize>,
) -> Vec<(Key, ClusterPartial)> {
    let (partials, _) = naive_fold(
        range,
        DA_CHUNK,
        centers.rows(),
        points.cols(),
        |i, part, _| {
            let x = points.row(i);
            let r = naive_responsibilities(centers, t, x);
            for (j, &w) in r.iter().enumerate() {
                if w > 1e-12 {
                    part[j].add(w, x);
                }
            }
        },
    );
    keyed(partials, None)
}

fn naive_da_labels(centers: &MatrixF32, points: &MatrixF32) -> Vec<u32> {
    (0..points.rows())
        .map(|i| {
            let x = points.row(i);
            (0..centers.rows())
                .min_by(|&a, &b| sq_dist(x, centers.row(a)).total_cmp(&sq_dist(x, centers.row(b))))
                .unwrap() as u32
        })
        .collect()
}

// ----------------------------------------------------------------------
// Inputs and comparison.
// ----------------------------------------------------------------------

/// One generated case: the data set's shape and seed, and the map range.
#[derive(Debug, Clone)]
struct Case {
    n: usize,
    d: usize,
    k: usize,
    seed: u64,
    /// Coordinates on a three-value grid: exact ties between centers and
    /// points that coincide with a center even after updates.
    grid: bool,
    range: Range<usize>,
}

impl Case {
    fn points(&self) -> Arc<MatrixF32> {
        let mut rng = SplitMix64::new(self.seed);
        let grid = self.grid;
        Arc::new(MatrixF32::from_fn(self.n, self.d, |_, _| {
            if grid {
                rng.next_below(3) as f32
            } else {
                (rng.next_normal() * 3.0 + 5.0) as f32
            }
        }))
    }

    /// A few rows spread over the input, for the per-point wrappers
    /// (a whole-block sum can round a last-bit difference away).
    fn probes(&self) -> impl Iterator<Item = usize> {
        (0..self.n).step_by(self.n / 16 + 1)
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    // Small sets exercise k close to n; large ones straddle the 2048- and
    // 4096-item chunk boundaries from ranges that start mid-matrix.
    let n = prop_oneof![2usize..200, 2100usize..=5000];
    (
        n,
        1usize..=40,
        1usize..=12,
        0u64..1 << 40,
        0.0..1.0f64,
        0.0..1.0f64,
    )
        .prop_map(|(n, d, k, seed, a, b)| {
            let k = k.min(n - 1);
            // One case in four maps the whole input (every initial center
            // is then a point of the range: the crisp-membership branch).
            let (start, end) = if a < 0.25 {
                (0, n)
            } else {
                let start = (a * n as f64) as usize % n;
                (start, start + (b * (n - start + 1) as f64) as usize)
            };
            Case {
                n,
                d,
                k,
                seed,
                grid: seed % 4 == 0,
                range: start..end.min(n),
            }
        })
}

fn assert_same_bits(
    got: &[(Key, ClusterPartial)],
    want: &[(Key, ClusterPartial)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for ((gk, g), (wk, w)) in got.iter().zip(want) {
        prop_assert_eq!(gk, wk);
        prop_assert_eq!(
            g.weight.to_bits(),
            w.weight.to_bits(),
            "weight of key {}",
            gk
        );
        let g_bits: Vec<u64> = g.weighted_sum.iter().map(|v| v.to_bits()).collect();
        let w_bits: Vec<u64> = w.weighted_sum.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(g_bits, w_bits, "weighted sum of key {}", gk);
    }
    Ok(())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One model update from a whole-input map pass, as the runtime's
/// reduce + update would apply it on one node.
fn step<A>(app: &A, n: usize)
where
    A: IterativeApp<Inter = ClusterPartial, Output = ClusterPartial>,
{
    app.update(&app.cpu_map(0, 0..n));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cmeans_map_equals_the_naive_reference(
        case in arb_case(),
        fuzzifier in prop_oneof![Just(1.5f64), Just(2.0f64), Just(3.0f64)],
    ) {
        let pts = case.points();
        let app = CMeans::new(pts.clone(), case.k, fuzzifier, 1e-9, case.seed);
        // Initial centers are rows of the input (points sit exactly on
        // them); after an update they are means.
        for _ in 0..2 {
            let centers = app.centers();
            let want = naive_cmeans_map(&pts, &centers, fuzzifier, case.range.clone());
            assert_same_bits(&app.cpu_map(0, case.range.clone()), &want)?;
            assert_same_bits(&app.gpu_map(1, case.range.clone()), &want)?;
            prop_assert_eq!(app.labels(&pts), naive_harden(&centers, fuzzifier, &pts));
            for probe in case.probes().map(|i| pts.row(i)) {
                prop_assert_eq!(
                    bits(&CMeans::memberships(&centers, fuzzifier, probe)),
                    bits(&naive_memberships(&centers, fuzzifier, probe))
                );
            }
            step(&app, case.n);
        }
    }

    #[test]
    fn kmeans_map_equals_the_naive_reference(case in arb_case()) {
        let pts = case.points();
        let app = KMeans::new(pts.clone(), case.k, 1e-9, case.seed);
        for _ in 0..2 {
            let centers = app.centers();
            let want = naive_kmeans_map(&pts, &centers, case.range.clone());
            assert_same_bits(&app.cpu_map(0, case.range.clone()), &want)?;
            assert_same_bits(&app.gpu_map(1, case.range.clone()), &want)?;
            let labels: Vec<u32> =
                (0..case.n).map(|i| naive_nearest(&centers, pts.row(i)).0 as u32).collect();
            prop_assert_eq!(app.labels(&pts), labels);
            for probe in case.probes().map(|i| pts.row(i)) {
                let (j, dist) = KMeans::nearest(&centers, probe);
                let (nj, ndist) = naive_nearest(&centers, probe);
                prop_assert_eq!((j, dist.to_bits()), (nj, ndist.to_bits()));
            }
            step(&app, case.n);
        }
    }

    #[test]
    fn da_map_equals_the_naive_reference(
        case in arb_case(),
        cooling in 0.51..0.95f64,
        sweeps in 0usize..24,
        probe_t in 1e-6..1e3f64,
    ) {
        let pts = case.points();
        let app = DaKmeans::new(pts.clone(), case.k, cooling, 1e-3);
        // Walk down the cooling schedule: hot (near-uniform
        // responsibilities) to cold (most under the 1e-12 cut-off).
        for _ in 0..sweeps {
            step(&app, case.n);
        }
        let (centers, t) = (app.centers(), app.temperature());
        let want = naive_da_map(&pts, &centers, t, case.range.clone());
        assert_same_bits(&app.cpu_map(0, case.range.clone()), &want)?;
        assert_same_bits(&app.gpu_map(1, case.range.clone()), &want)?;
        prop_assert_eq!(app.labels(&pts), naive_da_labels(&centers, &pts));
        for probe in case.probes().map(|i| pts.row(i)) {
            prop_assert_eq!(
                bits(&DaKmeans::responsibilities(&centers, probe_t, probe)),
                bits(&naive_responsibilities(&centers, probe_t, probe))
            );
        }
    }
}

/// A point exactly on a center — after updates too, not only at the
/// random-row initialisation: every point of this set is one of two
/// locations, so the means converge onto them and stay there.
#[test]
fn a_point_on_a_center_takes_the_crisp_branch_in_both_formulations() {
    let n = 2500;
    let pts = Arc::new(MatrixF32::from_fn(n, 3, |r, c| {
        if r % 2 == 0 {
            c as f32
        } else {
            8.0
        }
    }));
    for fuzzifier in [1.5, 2.0, 3.0] {
        // Seeds until the two initial centers are distinct locations.
        let app = (0..)
            .map(|seed| CMeans::new(pts.clone(), 2, fuzzifier, 1e-9, seed))
            .find(|app| app.centers().row(0) != app.centers().row(1))
            .unwrap();
        for _ in 0..3 {
            let centers = app.centers();
            let u = CMeans::memberships(&centers, fuzzifier, pts.row(0));
            assert!(
                u.contains(&1.0) && u.contains(&0.0),
                "crisp membership, got {u:?}"
            );
            for range in [0..n, 1000..2300] {
                let want = naive_cmeans_map(&pts, &centers, fuzzifier, range.clone());
                let got = app.cpu_map(0, range);
                assert_same_bits(&got, &want).map_err(|e| e.0).unwrap();
            }
            step(&app, n);
        }
    }
}

/// An empty range maps to zeroed partials under both formulations.
#[test]
fn an_empty_range_maps_to_zeroed_partials() {
    let case = Case {
        n: 50,
        d: 4,
        k: 3,
        seed: 1,
        grid: false,
        range: 7..7,
    };
    let pts = case.points();
    let app = CMeans::new(pts.clone(), 3, 2.0, 1e-9, 1);
    let want = naive_cmeans_map(&pts, &app.centers(), 2.0, 7..7);
    assert_same_bits(&app.cpu_map(0, 7..7), &want)
        .map_err(|e| e.0)
        .unwrap();
}
