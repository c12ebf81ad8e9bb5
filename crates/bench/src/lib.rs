//! # prs-bench — experiment harness utilities
//!
//! Shared plumbing for the table/figure regeneration binaries: workload
//! scaling, table printing, and machine-readable result files under
//! `target/experiments/`.
//!
//! Every binary accepts a `PRS_SCALE` environment variable (default 1.0)
//! multiplying its workload sizes. Virtual-time results are scale-linear
//! above the overhead-dominated regime, so shapes and ratios are
//! preserved at reduced scale; EXPERIMENTS.md records the scale used for
//! each recorded run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use prs_core::{DeviceClass, IterativeApp, Key, SpmdApp};
use roofline::schedule::Workload;
use serde::Serialize;
use std::ops::Range;
use std::path::PathBuf;

/// A timing-faithful stand-in application for scheduler profiling sweeps.
///
/// It charges exactly the virtual time a real application with the same
/// `Workload`, record size, and intermediate shape would be charged (the
/// cost model reads only those), but its kernels do no host-side numeric
/// work — so a Table-5-style profiling sweep can run at the paper's full
/// data sizes in milliseconds of real time.
pub struct SyntheticApp {
    /// Number of input records.
    pub n: usize,
    /// Bytes per record.
    pub item_bytes: u64,
    /// Arithmetic intensity and residency.
    pub workload: Workload,
    /// Distinct keys each map block emits (after combining).
    pub keys: u64,
    /// Wire size of one emitted intermediate value.
    pub value_bytes: u64,
}

impl SpmdApp for SyntheticApp {
    type Inter = ();
    type Output = ();

    fn num_items(&self) -> usize {
        self.n
    }
    fn item_bytes(&self) -> u64 {
        self.item_bytes
    }
    fn workload(&self) -> Workload {
        self.workload
    }
    fn cpu_map(&self, _node: usize, _range: Range<usize>) -> Vec<(Key, ())> {
        (0..self.keys).map(|k| (k, ())).collect()
    }
    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, ())> {
        self.cpu_map(node, range)
    }
    fn reduce(&self, _d: DeviceClass, _k: Key, _v: Vec<()>) {}
    fn combine(&self, _k: Key, _v: Vec<()>) -> Vec<()> {
        vec![()]
    }
    fn inter_bytes(&self, _v: &()) -> u64 {
        self.value_bytes
    }
    fn output_bytes(&self, _v: &()) -> u64 {
        self.value_bytes
    }
}

impl IterativeApp for SyntheticApp {
    fn update(&self, _outputs: &[(Key, ())]) -> bool {
        false // run to the configured iteration cap
    }
}

/// The workload scale factor from `PRS_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("PRS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// Applies the scale factor to a count, flooring at 1.
pub fn scaled(base: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(1)
}

/// Directory experiment outputs are written to.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
    )
    .join("experiments");
    std::fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Writes `value` as pretty JSON to `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(&path, json).expect("can write experiment output");
    println!("\n[written] {}", path.display());
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_core::{run_iterative, ClusterSpec, JobConfig};
    use roofline::model::DataResidency;
    use std::sync::Arc;

    #[test]
    fn synthetic_app_is_charged_like_a_real_one() {
        // GMM-shaped synthetic workload at modest size: the analytic CPU
        // fraction should be recorded and the makespan positive.
        let app = Arc::new(SyntheticApp {
            n: 100_000,
            item_bytes: 240,
            workload: Workload::uniform(6600.0, DataResidency::Resident),
            keys: 11,
            value_bytes: 15_128,
        });
        let r = run_iterative(
            &ClusterSpec::delta(1),
            app,
            JobConfig::static_analytic().with_iterations(2),
        )
        .unwrap();
        assert_eq!(r.metrics.iterations.len(), 2);
        assert!(r.metrics.compute_seconds > 0.0);
        let p = r.metrics.cpu_fraction.unwrap();
        assert!((p - 0.112).abs() < 0.01);
    }

    #[test]
    fn synthetic_makespan_scales_linearly_with_n() {
        let run = |n: usize| {
            let app = Arc::new(SyntheticApp {
                n,
                item_bytes: 400,
                workload: Workload::uniform(500.0, DataResidency::Resident),
                keys: 4,
                value_bytes: 64,
            });
            run_iterative(
                &ClusterSpec::delta(1),
                app,
                JobConfig::static_analytic().with_iterations(1),
            )
            .unwrap()
            .metrics
            .compute_seconds
        };
        let t1 = run(1_000_000);
        let t2 = run(2_000_000);
        let ratio = t2 / t1;
        assert!((1.8..2.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn scaled_floors_at_one() {
        // With default scale 1.0 the identity holds; the floor guards
        // aggressive downscaling.
        assert_eq!(scaled(100), (100.0 * scale()).round() as usize);
        assert!(scaled(0) >= 1);
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(123.4), "123.4 s");
        assert_eq!(fmt_secs(1.5), "1.50 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(0.0000012), "1.20 us");
    }

    #[test]
    fn write_json_roundtrip() {
        write_json("selftest", &serde_json::json!({"ok": true}));
        let path = experiments_dir().join("selftest.json");
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("\"ok\": true"));
    }
}
