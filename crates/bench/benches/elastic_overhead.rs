//! Epoch-driver overhead bench: the cost of routing a run through
//! `prs_core::run_epochs` versus the plain iterative driver, with and
//! without actual churn.
//!
//! The numbers land in `target/experiments/BENCH_elastic.json`:
//!
//! - *empty-plan wall seconds* — the epoch driver with nothing
//!   scheduled, versus the baseline run (one epoch plus checkpoint
//!   writes, so this is the price of the epoch plumbing);
//! - *churn wall seconds* — a plan with one scale-out and one graceful
//!   drain mid-run, i.e. the real multi-epoch path;
//! - *virtual-time bit-identity* — must be exactly true: an empty plan
//!   (and no autoscaler) is contractually bit-identical to the
//!   fixed-cluster run (see docs/elasticity.md).

use criterion::{criterion_group, Criterion};
use prs_bench::{write_json, SyntheticApp};
use prs_core::{run_epochs, run_iterative, ClusterSpec, EpochOptions, JobConfig, MembershipPlan};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn app() -> Arc<SyntheticApp> {
    Arc::new(SyntheticApp {
        n: 200_000,
        item_bytes: 64,
        workload: Workload::uniform(200.0, DataResidency::Staged),
        keys: 16,
        value_bytes: 16,
    })
}

fn config() -> JobConfig {
    JobConfig::static_analytic()
        .with_iterations(3)
        .with_checkpoint_interval(1)
}

fn elastic(plan: &MembershipPlan) -> prs_core::ElasticOutcome<()> {
    let opts = EpochOptions { membership: plan.clone(), ..EpochOptions::default() };
    run_epochs(&ClusterSpec::delta(2), app(), config(), opts).unwrap()
}

fn bench_elastic(c: &mut Criterion) {
    let empty = MembershipPlan::seeded(7);
    let mut g = c.benchmark_group("elastic/two_node_3_iter");
    g.sample_size(10);
    g.bench_function("empty_plan", |b| {
        b.iter(|| black_box(elastic(&empty)));
    });
    g.finish();
}

/// Mean wall-clock seconds of `f` over `n` timed runs (after one warmup).
fn mean_secs<R>(n: u32, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..n {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / f64::from(n)
}

fn emit_json() {
    let spec = ClusterSpec::delta(2);
    let runs = 10;
    let baseline = run_iterative(&spec, app(), config()).unwrap();
    let span = baseline.metrics.total_seconds;
    let empty = MembershipPlan::seeded(7);
    // One joiner and one graceful drain, both well inside the span, so
    // the timed path covers join handshake + rebase + re-partition.
    let churn = MembershipPlan::seeded(7)
        .scale_out(1, 0.30 * span)
        .drain(1, 0.55 * span, 10.0 * span);

    let run_wall = mean_secs(runs, || run_iterative(&spec, app(), config()).unwrap());
    let empty_wall = mean_secs(runs, || elastic(&empty));
    let churn_wall = mean_secs(runs, || elastic(&churn));

    let empty_out = elastic(&empty);
    let virtual_identical =
        empty_out.total_virtual_secs.to_bits() == span.to_bits();
    assert!(
        virtual_identical,
        "empty membership plan must be bit-identical to the fixed-cluster run: {} vs {}",
        empty_out.total_virtual_secs, span
    );
    let churn_out = elastic(&churn);
    assert!(
        churn_out.membership.joins == 1 && churn_out.membership.drains == 1,
        "churn case must exercise one join and one drain"
    );

    let frac = |wall: f64| if run_wall > 0.0 { wall / run_wall } else { 0.0 };
    write_json(
        "BENCH_elastic",
        &serde_json::json!({
            "bench": "elastic_overhead",
            "scenario": "delta(2), 3 iterations, 200k items, ckpt interval 1",
            "timed_runs": runs,
            "run_wall_secs": run_wall,
            "empty_plan_wall_secs": empty_wall,
            "churn_wall_secs": churn_wall,
            "empty_plan_over_run_fraction": frac(empty_wall),
            "churn_over_run_fraction": frac(churn_wall),
            "churn_epochs": churn_out.attempts.len(),
            "virtual_time_bit_identical": virtual_identical,
        }),
    );
}

criterion_group!(benches, bench_elastic);

fn main() {
    benches();
    emit_json();
}
