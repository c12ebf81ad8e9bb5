//! Criterion benchmarks of the real numerical kernels (host-side compute
//! that runs inside simulated launches).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prs_apps::{serial_cmeans, serial_kmeans, CMeans, KMeans, WordCount};
use prs_core::SpmdApp;
use prs_data::matrix::{gemm_par, gemm_seq, gemv_par, gemv_seq, MatrixF32};
use prs_data::rng::{scan_index, weight_total, SplitMix64, WeightTable};
use std::collections::HashMap;
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

/// `WordCount::cpu_map` as it was: a SipHash map of the block, then a sort.
fn map_by_hash(words: &[u32]) -> Vec<(u64, u64)> {
    let mut local: HashMap<u32, u64> = HashMap::new();
    for &w in words {
        *local.entry(w).or_insert(0) += 1;
    }
    let mut out: Vec<(u64, u64)> = local.into_iter().map(|(w, c)| (u64::from(w), c)).collect();
    out.sort_unstable_by_key(|(k, _)| *k);
    out
}

/// The `shuffle_wordcount_256node` shape: an 800-word Zipf vocabulary in
/// map blocks of 38 to 225 tokens.
const VOCAB: u32 = 800;

fn bench_wordcount_blocks(c: &mut Criterion) {
    const TOKENS: usize = 100_000;
    let app = WordCount::synthetic(TOKENS, VOCAB, 42);
    // The app's own tokens, read back through one-token map tasks.
    let words: Vec<u32> = (0..TOKENS).map(|i| app.cpu_map(0, i..i + 1)[0].0 as u32).collect();
    let mut g = c.benchmark_group("kernels/wordcount_map_block");
    // One iteration maps the whole corpus, block by block.
    g.sample_size(20).throughput(Throughput::Elements(TOKENS as u64));
    for block in [225usize, 38] {
        let blocks = || (0..TOKENS / block).map(move |i| i * block..(i + 1) * block);
        g.bench_with_input(BenchmarkId::new("hash_reference", block), &block, |b, _| {
            b.iter(|| blocks().map(|r| map_by_hash(&words[r]).len()).sum::<usize>());
        });
        g.bench_with_input(BenchmarkId::new("current", block), &block, |b, _| {
            b.iter(|| blocks().map(|r| app.cpu_map(0, r).len()).sum::<usize>());
        });
    }
    g.finish();
}

/// Weighted draws from that vocabulary's weights: the scan every draw is
/// defined by, and the table that answers the same in O(log n).
fn bench_weighted_draw(c: &mut Criterion) {
    const DRAWS: u64 = 100_000;
    let weights: Vec<f64> = (0..VOCAB).map(|r| 1.0 / (f64::from(r) + 1.0)).collect();
    let total = weight_total(&weights);
    let table = WeightTable::new(weights.clone());
    let mut rng = SplitMix64::new(42);
    let mut g = c.benchmark_group("rng/weighted_800");
    g.sample_size(20).throughput(Throughput::Elements(DRAWS));
    g.bench_function("scan", |b| {
        b.iter(|| (0..DRAWS).map(|_| scan_index(&weights, rng.next_f64() * total)).sum::<usize>());
    });
    g.bench_function("table", |b| {
        b.iter(|| (0..DRAWS).map(|_| rng.next_in(&table)).sum::<usize>());
    });
    g.throughput(Throughput::Elements(u64::from(VOCAB)));
    g.bench_function("table_build", |b| b.iter(|| WeightTable::new(weights.clone())));
    g.finish();
}

criterion_group!(
    benches,
    bench_gemv,
    bench_gemm,
    bench_clustering_blocks,
    bench_wordcount_blocks,
    bench_weighted_draw
);
criterion_main!(benches);
