//! The combiner law of `SpmdApp::combine`, bit for bit, for each of the
//! apps' five combiners: `Centers` (C-means, K-means, DA), `Gmm`,
//! `BatchFft`, `WordCount`, and the trait's pass-through default (GEMV,
//! SpMV, DGEMM). The runtime folds each map block into a node's running
//! partials as it lands and combines only keys holding more than one
//! value; the law is what makes that equal to combining all of a node's
//! pairs at once:
//!
//! - `combine(k, combine(k, xs) ++ ys) == combine(k, xs ++ ys)`
//! - `combine(k, [v]) == [v]`
//!
//! Values are compared through their `Debug` form, which tells `-0.0`
//! from `0.0` and reads back to the same float bits.

use prs_apps::common::ClusterPartial;
use prs_apps::gemv::YBlock;
use prs_apps::gmm::GmmPartial;
use prs_apps::{BatchFft, CMeans, Gemv, Gmm, WordCount};
use prs_core::{Key, SpmdApp};
use prs_data::MatrixF32;
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;

/// Both halves of the law for one key, one `xs` (at least one value)
/// and one `ys`.
fn law<A: SpmdApp<Inter: Debug>>(
    app: &A,
    key: Key,
    xs: Vec<A::Inter>,
    ys: Vec<A::Inter>,
) -> Result<(), TestCaseError> {
    for v in xs.iter().chain(&ys) {
        let one = vec![v.clone()];
        prop_assert_eq!(format!("{:?}", app.combine(key, one.clone())), format!("{one:?}"));
    }
    let whole: Vec<A::Inter> = xs.iter().chain(&ys).cloned().collect();
    let mut folded = app.combine(key, xs);
    folded.extend(ys);
    let (folded, whole) = (app.combine(key, folded), app.combine(key, whole));
    prop_assert_eq!(format!("{folded:?}"), format!("{whole:?}"));
    Ok(())
}

/// Finite floats of mixed sign and magnitude, with both zeros.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![8 => -1e6..1e6f64, 1 => Just(0.0), 1 => Just(-0.0)]
}

fn cluster_partial() -> impl Strategy<Value = ClusterPartial> {
    (vec(float(), 3), float()).prop_map(|(weighted_sum, weight)| ClusterPartial {
        weighted_sum,
        weight,
    })
}

fn gmm_partial() -> impl Strategy<Value = GmmPartial> {
    (float(), vec(float(), 2), vec(float(), 3)).prop_map(|(weight, mean_sum, cov_sum)| {
        GmmPartial {
            weight,
            mean_sum,
            cov_sum,
        }
    })
}

fn y_block() -> impl Strategy<Value = YBlock> {
    (0usize..100, vec(-1e3..1e3f32, 0..4)).prop_map(|(start, values)| YBlock { start, values })
}

fn points(dims: usize) -> Arc<MatrixF32> {
    Arc::new(MatrixF32::from_fn(8, dims, |i, j| (i * dims + j) as f32))
}

proptest! {
    #[test]
    fn centers_keep_the_law(
        key in 0u64..4,
        xs in vec(cluster_partial(), 1..5),
        ys in vec(cluster_partial(), 0..5),
    ) {
        law(&CMeans::new(points(3), 3, 2.0, 1e-3, 1), key, xs, ys)?;
    }

    #[test]
    fn gmm_keeps_the_law(
        key in 0u64..3,
        xs in vec(gmm_partial(), 1..5),
        ys in vec(gmm_partial(), 0..5),
    ) {
        law(&Gmm::new(points(2), 2, 1e-6, 1), key, xs, ys)?;
    }

    #[test]
    fn batch_fft_keeps_the_law(xs in vec(float(), 1..5), ys in vec(float(), 0..5)) {
        law(&BatchFft::synthetic(4, 64, 1), 0, xs, ys)?;
    }

    #[test]
    fn wordcount_keeps_the_law(
        key in 0u64..10,
        xs in vec(0u64..1 << 40, 1..5),
        ys in vec(0u64..1 << 40, 0..5),
    ) {
        law(&WordCount::synthetic(100, 10, 1), key, xs, ys)?;
    }

    #[test]
    fn the_default_combiner_keeps_the_law(
        key in 0u64..4,
        xs in vec(y_block(), 1..5),
        ys in vec(y_block(), 0..5),
    ) {
        let a = MatrixF32::from_fn(4, 2, |i, j| (i + j) as f32);
        law(&Gemv::new(Arc::new(a), Arc::new(vec![1.0, 2.0])), key, xs, ys)?;
    }
}
