//! Visualize a job's execution two ways from one instrumented run: the
//! ASCII Gantt chart (CPU cores and GPU engines filling up, transfers
//! overlapping kernels across streams), and the unified observability
//! exporters — structured events, Prometheus metrics, the
//! scheduler-decision audit, and a Chrome trace you can open in
//! Perfetto. If Equation (8) did its job, both device classes finish
//! together and the audit's predicted map time matches the observed one.
//!
//! ```sh
//! cargo run --release -p prs-suite --example timeline_view
//! ```

use device::{render_ascii, to_chrome_trace};
use prs_core::{run_job_observed, ClusterSpec, DeviceClass, JobConfig, Key, Obs, SpmdApp};
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// A balanced mid-intensity workload so both devices get visible work.
struct Balanced;

impl SpmdApp for Balanced {
    type Inter = u64;
    type Output = u64;
    fn num_items(&self) -> usize {
        500_000
    }
    fn item_bytes(&self) -> u64 {
        512
    }
    fn workload(&self) -> Workload {
        // Near the staged ridge: Equation (8) splits roughly in half.
        Workload::uniform(1000.0, DataResidency::Staged)
    }
    fn cpu_map(&self, _n: usize, r: Range<usize>) -> Vec<(Key, u64)> {
        vec![(0, r.len() as u64)]
    }
    fn gpu_map(&self, n: usize, r: Range<usize>) -> Vec<(Key, u64)> {
        self.cpu_map(n, r)
    }
    fn reduce(&self, _d: DeviceClass, _k: Key, v: Vec<u64>) -> u64 {
        v.iter().sum()
    }
    fn combine_into(&self, _k: Key, acc: &mut u64, next: u64) -> Option<u64> {
        *acc += next;
        None
    }
}

fn main() {
    let config = JobConfig {
        gpu_streams: 2,
        ..JobConfig::static_analytic()
    };
    // The devices record their busy time as profiler stack frames, so the
    // Gantt chart needs only `Obs { stack: StackCtx::recording(),
    // ..Obs::disabled() }`; this example records everything to show the
    // event stream and the audit too.
    let obs = Obs::recording();
    let result =
        run_job_observed(&ClusterSpec::delta(1), Arc::new(Balanced), config, obs.clone())
            .expect("job");

    println!(
        "Equation (8) split: {:.1}% CPU — makespan {:.2} ms\n",
        result.metrics.cpu_fraction.unwrap() * 100.0,
        result.metrics.compute_seconds * 1e3
    );
    println!("Gantt ('#' kernel/CPU task, '>' H2D transfer, '<' D2H transfer):\n");
    print!("{}", render_ascii(&result.metrics.timeline, 100));

    // The same execution, as the structured event stream sees it.
    let mut by_kind: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    for e in obs.bus.events() {
        let slot = by_kind.entry(e.kind.to_string()).or_default();
        slot.0 += 1;
        slot.1 += e.dur.unwrap_or(0.0);
    }
    println!("\nEvent stream ({} events):", obs.bus.len());
    for (kind, (n, busy)) in &by_kind {
        println!("  {kind:<16} x{n:<5} {:.3} ms busy", busy * 1e3);
    }

    // The audited decision: Equation (8)'s prediction against reality.
    for d in obs.audit.records() {
        println!(
            "\nAudited split: p = {:.3} ({}, {} regime)",
            d.cpu_fraction, d.trigger, d.regime
        );
        println!(
            "  predicted map {:.3} ms   observed {:.3} ms   error {:.2}%",
            d.predicted_map_secs * 1e3,
            d.observed_map_secs.unwrap_or(0.0) * 1e3,
            d.map_error().unwrap_or(0.0) * 100.0
        );
    }

    // Full bundle on disk — `prs trace` / `prs metrics` read the same files.
    let dir = std::path::Path::new("target").join("obs-example");
    std::fs::create_dir_all(&dir).expect("create output dir");
    std::fs::write(dir.join("events.jsonl"), obs.bus.to_jsonl()).expect("events");
    std::fs::write(dir.join("metrics.prom"), obs.metrics.to_prometheus()).expect("metrics");
    std::fs::write(dir.join("decisions.jsonl"), obs.audit.to_jsonl()).expect("decisions");
    std::fs::write(dir.join("trace.json"), to_chrome_trace(&result.metrics.timeline))
        .expect("trace");
    println!(
        "\nWrote events.jsonl / metrics.prom / decisions.jsonl / trace.json to {}\n\
         (open trace.json in Perfetto, or run: prs trace --dir {})",
        dir.display(),
        dir.display()
    );
}
