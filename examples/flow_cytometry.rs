//! The paper's motivating scenario (§IV.A.1): fuzzy C-means clustering of
//! flow-cytometry events on a GPU+CPU cluster, with the analytic
//! scheduler deciding the device split and loop-invariant data cached in
//! GPU memory across iterations.
//!
//! ```sh
//! cargo run --release -p prs-suite --example flow_cytometry
//! ```

use prs_apps::CMeans;
use prs_core::{run_iterative, ClusterSpec, JobConfig, SpmdApp};
use prs_data::quality::{adjusted_rand_index, average_width, overlap_with_reference};
use roofline::schedule::split;
use std::sync::Arc;

fn main() {
    // A Lymphocytes-shaped data set: 20054 events, 4 fluorescence
    // channels, 5 overlapping populations (stand-in for the FLAME set).
    let ds = prs_data::lymphocytes_like(42);
    let points = Arc::new(ds.points.clone());
    let k = ds.spec.k();
    println!(
        "flow cytometry: {} events x {} channels, {k} populations",
        points.rows(),
        points.cols()
    );

    // What will the scheduler do? C-means at M=5 has AI = 5*M = 25
    // flops/byte with the event matrix resident in GPU memory.
    let cluster = ClusterSpec::delta(4);
    let app = Arc::new(CMeans::new(points.clone(), k, 2.0, 1e-2, 11));
    let decision = split(&cluster.nodes[0], &app.workload());
    println!(
        "Equation (8): AI = {} flops/byte, regime {:?} -> CPU fraction p = {:.1}%",
        app.workload().ai_cpu,
        decision.regime,
        decision.cpu_fraction * 100.0
    );

    let result = run_iterative(
        &cluster,
        app.clone(),
        JobConfig::static_analytic().with_iterations(80),
    )
    .expect("clustering job");

    let labels = app.labels(&points);
    println!("\nconverged after {} iterations", result.metrics.iterations.len());
    println!(
        "  objective J_m        : {:.3e} -> {:.3e}",
        app.objective_history().first().unwrap(),
        app.objective_history().last().unwrap()
    );
    println!(
        "  average width        : {:.2}",
        average_width(&points, &app.centers(), &labels)
    );
    println!(
        "  overlap vs reference : {:.1}%",
        overlap_with_reference(&labels, &ds.labels, k) * 100.0
    );
    println!(
        "  adjusted Rand index  : {:.3}",
        adjusted_rand_index(&labels, &ds.labels)
    );
    println!(
        "  virtual runtime      : {:.2} ms over 4 nodes ({:.2} ms/iteration)",
        result.metrics.compute_seconds * 1e3,
        result.metrics.seconds_per_iteration() * 1e3
    );
    println!(
        "  map tasks CPU / GPU  : {} / {}",
        result.metrics.cpu_map_tasks, result.metrics.gpu_map_tasks
    );
}
