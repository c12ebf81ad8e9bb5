//! Criterion benchmarks of the real numerical kernels (host-side compute
//! that runs inside simulated launches).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prs_apps::{serial_cmeans, serial_kmeans, CMeans, KMeans};
use prs_core::SpmdApp;
use prs_data::matrix::{gemm_par, gemm_seq, gemv_par, gemv_seq, MatrixF32};
use prs_data::rng::SplitMix64;
use std::sync::Arc;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> MatrixF32 {
    let mut rng = SplitMix64::new(seed);
    MatrixF32::from_fn(rows, cols, |_, _| rng.next_f32() - 0.5)
}

fn bench_gemv(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/gemv");
    for n in [256usize, 1024] {
        let a = random_matrix(n, n, 1);
        let x: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let mut y = vec![0.0f32; n];
        g.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter(|| gemv_seq(&a, &x, &mut y));
        });
        g.bench_with_input(BenchmarkId::new("par", n), &n, |b, _| {
            b.iter(|| gemv_par(&a, &x, &mut y));
        });
    }
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/gemm");
    g.sample_size(10);
    for n in [64usize, 128] {
        let a = random_matrix(n, n, 2);
        let bm = random_matrix(n, n, 3);
        let mut cm = MatrixF32::zeros(n, n);
        g.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter(|| gemm_seq(&a, &bm, &mut cm));
        });
        g.bench_with_input(BenchmarkId::new("par", n), &n, |b, _| {
            b.iter(|| gemm_par(&a, &bm, &mut cm));
        });
    }
    g.finish();
}

/// The repo benchmark's `kernel_cmeans_4node` shape: 32 dims, 8 clusters.
const DIMS: usize = 32;
const CLUSTERS: usize = 8;

/// One app's map task on the center panel next to one iteration of its
/// serial reference over the same rows — the naive `sq_dist`-per-center
/// formulation, so the panel's speed-up shows without the harness.
fn bench_map_block<A: SpmdApp>(
    c: &mut Criterion,
    group: &str,
    pts: &MatrixF32,
    app: &A,
    serial: impl Fn(&MatrixF32),
) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    for block in [1_000usize, 10_000] {
        g.bench_with_input(BenchmarkId::new("panel", block), &block, |b, &block| {
            b.iter(|| app.cpu_map(0, 0..block));
        });
        let rows = pts.rows_slice(0, block);
        g.bench_with_input(BenchmarkId::new("serial_naive", block), &block, |b, _| {
            b.iter(|| serial(&rows));
        });
    }
    g.finish();
}

fn bench_clustering_blocks(c: &mut Criterion) {
    let pts = Arc::new(random_matrix(20_000, DIMS, 4));
    bench_map_block(
        c,
        "kernels/cmeans_map_block",
        &pts,
        &CMeans::new(pts.clone(), CLUSTERS, 2.0, 1e-6, 5),
        |rows| {
            serial_cmeans(rows, CLUSTERS, 2.0, 1e-6, 5, 1);
        },
    );
    bench_map_block(
        c,
        "kernels/kmeans_map_block",
        &pts,
        &KMeans::new(pts.clone(), CLUSTERS, 1e-6, 5),
        |rows| {
            serial_kmeans(rows, CLUSTERS, 1e-6, 5, 1);
        },
    );
}

criterion_group!(benches, bench_gemv, bench_gemm, bench_clustering_blocks);
criterion_main!(benches);
