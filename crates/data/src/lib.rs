//! # prs-data — workload and dataset substrate
//!
//! Everything the reproduction needs to *feed* the runtime, independent of
//! the runtime itself:
//!
//! - [`rng`] — splittable deterministic RNG (SplitMix64) so that every
//!   experiment is bit-reproducible across runs and thread counts.
//! - [`matrix`] — dense row-major `f32` matrices plus the GEMV/GEMM
//!   kernels the applications and baselines share.
//! - [`gaussian`] — Gaussian-mixture generators, including the
//!   Lymphocytes-shaped stand-in for the paper's Figure-5 data set.
//! - [`pca`] — power-iteration PCA for the Figure-5 3-D projection.
//! - [`quality`] — clustering-quality metrics (average width, overlap with
//!   a reference labeling, adjusted Rand index).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gaussian;
pub mod matrix;
pub mod pca;
pub mod quality;
pub mod rng;

pub use gaussian::{generate, lymphocytes_like, Dataset, MixtureSpec};
pub use matrix::MatrixF32;
pub use rng::SplitMix64;

#[cfg(test)]
mod proptests {
    use crate::matrix::{dot, gemm_par, gemm_seq, gemv_par, gemv_seq, MatrixF32};
    use crate::quality::{adjusted_rand_index, overlap_with_reference};
    use crate::rng::SplitMix64;
    use proptest::prelude::*;

    fn arb_matrix(max_dim: usize) -> impl Strategy<Value = MatrixF32> {
        (1..max_dim, 1..max_dim, any::<u64>()).prop_map(|(r, c, seed)| {
            let mut rng = SplitMix64::new(seed);
            MatrixF32::from_fn(r, c, |_, _| rng.next_f32() * 2.0 - 1.0)
        })
    }

    proptest! {
        #[test]
        fn gemv_par_equals_seq(a in arb_matrix(32), seed in any::<u64>()) {
            let mut rng = SplitMix64::new(seed);
            let x: Vec<f32> = (0..a.cols()).map(|_| rng.next_f32()).collect();
            let mut y1 = vec![0.0; a.rows()];
            let mut y2 = vec![0.0; a.rows()];
            gemv_seq(&a, &x, &mut y1);
            gemv_par(&a, &x, &mut y2);
            prop_assert_eq!(y1, y2);
        }

        #[test]
        fn gemm_assoc_with_identity(a in arb_matrix(16)) {
            let eye = MatrixF32::from_fn(a.cols(), a.cols(), |r, c| {
                if r == c { 1.0 } else { 0.0 }
            });
            let mut c1 = MatrixF32::zeros(a.rows(), a.cols());
            gemm_seq(&a, &eye, &mut c1);
            prop_assert_eq!(&c1, &a);
            let mut c2 = MatrixF32::zeros(a.rows(), a.cols());
            gemm_par(&a, &eye, &mut c2);
            prop_assert_eq!(&c2, &a);
        }

        #[test]
        fn dot_is_symmetric(seed in any::<u64>(), n in 1usize..64) {
            let mut rng = SplitMix64::new(seed);
            let a: Vec<f32> = (0..n).map(|_| rng.next_f32()).collect();
            let b: Vec<f32> = (0..n).map(|_| rng.next_f32()).collect();
            prop_assert_eq!(dot(&a, &b), dot(&b, &a));
        }

        #[test]
        fn overlap_is_one_for_permuted_labels(
            labels in proptest::collection::vec(0u32..4, 8..100),
            perm_seed in any::<u64>(),
        ) {
            let mut perm: Vec<u32> = (0..4).collect();
            SplitMix64::new(perm_seed).shuffle(&mut perm);
            let renamed: Vec<u32> = labels.iter().map(|&l| perm[l as usize]).collect();
            let o = overlap_with_reference(&labels, &renamed, 4);
            prop_assert!((o - 1.0).abs() < 1e-12);
            let ari = adjusted_rand_index(&labels, &renamed);
            prop_assert!((ari - 1.0).abs() < 1e-9);
        }

        #[test]
        fn overlap_bounded(
            a in proptest::collection::vec(0u32..5, 10..60),
            seed in any::<u64>(),
        ) {
            let mut rng = SplitMix64::new(seed);
            let b: Vec<u32> = a.iter().map(|_| rng.next_below(5) as u32).collect();
            let o = overlap_with_reference(&a, &b, 5);
            prop_assert!((0.0..=1.0).contains(&o));
        }
    }
}
