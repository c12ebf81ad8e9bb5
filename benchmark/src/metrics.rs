//! The metric catalogue: every name the benchmark prints, with its
//! unit, direction, clock and (end-to-end only) regression bound.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! keeps the two in step.

use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a number lives on. Virtual and count metrics are
/// deterministic at a fixed seed; host metrics carry sandbox noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
    Count,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        clock,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: None,
    }
}

/// What a user of the system sees. All lower-is-better. Each bound is at
/// least three times the interquartile spread ten runs at ten seeds
/// showed on the 2-core box (host time there wanders 5-7 % between
/// runs). The two virtual metrics are exact at a fixed seed; their
/// bound only has to clear the spread the seed-derived input sizes put
/// between seeds.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", Clock::Host, 0.25),
    e2e("peak_rss_mb", "MiB", Clock::Host, 0.15),
    e2e("setup_s", "s", Clock::Host, 0.25),
    e2e("virtual_makespan_s", "s", Clock::Virtual, 0.001),
    e2e("virtual_steady_s", "s", Clock::Virtual, 0.005),
];

use Better::{Higher, Lower};
use Clock::{Count, Host, Virtual};

/// Single-layer numbers from the traced pass. No bounds: they attribute
/// an end-to-end movement, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("data.generate_s", "s", Lower, Host),
    layer("data.generate_mitems_per_s", "Mitems/s", Higher, Host),
    layer("apps.kernel_s", "s", Lower, Host),
    layer("apps.kernel_gflops_host", "Gflop/s", Higher, Host),
    layer("apps.reduce_s", "s", Lower, Host),
    layer("apps.output_rel_err", "ratio", Lower, Count),
    layer("roofline.split_ns", "ns", Lower, Host),
    layer("roofline.eq8_p_error_pts_max", "points", Lower, Virtual),
    layer("roofline.crossover_benefit_min", "ratio", Higher, Virtual),
    layer("device.launches_per_s", "1/s", Higher, Host),
    layer("device.kernels", "count", Lower, Count),
    layer("device.cpu_tasks", "count", Lower, Count),
    layer("device.h2d", "count", Lower, Count),
    layer("device.d2h", "count", Lower, Count),
    layer("device.gpu_util", "ratio", Higher, Virtual),
    layer("device.cpu_util", "ratio", Higher, Virtual),
    layer("device.block_wait_vs", "vs", Lower, Virtual),
    layer("device.queue_depth_peak", "count", Lower, Virtual),
    layer("device.setup_share", "ratio", Lower, Virtual),
    layer("netsim.collective_us_per_msg", "us", Lower, Host),
    layer("netsim.shuffle_probe_s", "s", Lower, Host),
    layer("netsim.msgs", "count", Lower, Count),
    layer("netsim.bytes", "bytes", Lower, Count),
    layer("netsim.shuffle_vs", "vs", Lower, Virtual),
    layer("netsim.update_vs", "vs", Lower, Virtual),
    layer("simtime.events", "count", Lower, Count),
    layer("simtime.events_per_s", "1/s", Higher, Host),
    layer("simtime.host_us_per_event", "us", Lower, Host),
    layer("simtime.peak_threads", "count", Lower, Host),
    layer("simtime.ctx_switches_per_event", "ratio", Lower, Host),
    layer("simtime.hold_us_per_event", "us", Lower, Host),
    layer("simtime.timer_us_per_event", "us", Lower, Host),
    layer("simtime.cross_core_penalty_ratio", "ratio", Lower, Host),
    layer("simtime.engine_legacy_wall_s", "s", Lower, Host),
    layer("simtime.engine_parallel_wall_s", "s", Lower, Host),
    layer("core.runtime_est_s", "s", Lower, Host),
    layer("core.job_fixed_cost_ms", "ms", Lower, Host),
    layer("core.chaos_trials_per_s", "1/s", Higher, Host),
    layer("core.churn_trials_per_s", "1/s", Higher, Host),
    layer("core.invariant_failures", "count", Lower, Count),
    layer("core.restores", "count", Lower, Count),
    layer("core.checkpoints_written", "count", Lower, Count),
    layer("core.speculative_won_ratio", "ratio", Higher, Count),
    layer("core.map_vs", "vs", Lower, Virtual),
    layer("core.reduce_vs", "vs", Lower, Virtual),
    layer("core.cpu_fraction", "ratio", Lower, Virtual),
    layer("obs.attach_overhead_ratio", "ratio", Lower, Host),
    layer("obs.emit_ns_per_event", "ns", Lower, Host),
    layer("obs.export_s", "s", Lower, Host),
    layer("obs.export_mb_per_s", "MiB/s", Higher, Host),
    layer("obs.events", "count", Lower, Count),
    layer("obs.recorder_retained_peak", "count", Lower, Count),
    layer("obs.recorder_folded", "count", Lower, Count),
    layer("obs.bundle_mb", "MiB", Lower, Host),
    layer("insight.parse_s", "s", Lower, Host),
    layer("insight.analyze_s", "s", Lower, Host),
    layer("insight.report_s", "s", Lower, Host),
    layer("insight.calibrate_s", "s", Lower, Host),
    layer("insight.events_per_s", "1/s", Higher, Host),
    layer("watch.watch_s", "s", Lower, Host),
    layer("watch.events_per_s", "1/s", Higher, Host),
    layer("watch.incidents", "count", Lower, Count),
    layer("watch.fault_free_alerts", "count", Lower, Count),
    layer("cli.startup_ms", "ms", Lower, Host),
    layer("cli.cpu_user_s", "s", Lower, Host),
    layer("cli.cpu_sys_s", "s", Lower, Host),
    layer("cli.run_s", "s", Lower, Host),
    layer("cli.analyze_s", "s", Lower, Host),
    layer("cli.watch_s", "s", Lower, Host),
    layer("cli.profile_s", "s", Lower, Host),
    layer("cli.top_s", "s", Lower, Host),
    layer("cli.calibrate_s", "s", Lower, Host),
    layer("bench.table5_s", "s", Lower, Host),
    layer("bench.expt_s", "s", Lower, Host),
    layer("trace_overhead_pct", "%", Lower, Host),
    layer("build_s", "s", Lower, Host),
    layer("ops_attempted", "count", Higher, Count),
    layer("ops_failed_share", "ratio", Lower, Count),
];

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// The contract's result line: `correct`, `attempted`, `failed` and one
/// `{value, unit}` per metric of `defs`. A metric without a finite
/// value is an error: the contract wants every listed metric, as
/// measured.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<Value, String> {
    let mut metrics = BTreeMap::new();
    for d in defs {
        let v = values
            .get(d.name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric '{}' has no finite value", d.name))?;
        metrics.insert(
            d.name.to_string(),
            serde_json::json!({"value": v, "unit": d.unit}),
        );
    }
    Ok(serde_json::json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    }))
}

/// Human-readable line for one metric: name, value, unit, direction,
/// clock, and the bound when it has one.
pub fn describe(d: &MetricDef, value: f64) -> String {
    let bound = match d.bound {
        Some(b) => format!(", bound {:.1}%", b * 100.0),
        None => String::new(),
    };
    format!(
        "  {:<36} {:>16.9} {:<9} ({} is better, {} clock{bound})",
        d.name,
        value,
        d.unit,
        d.better.as_str(),
        d.clock.as_str()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_names_units_and_bounds_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for d in END_TO_END {
            let b = d.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc[section].as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{section} length");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry["name"].as_str(), Some(d.name), "{section} order");
                assert_eq!(entry["unit"].as_str(), Some(d.unit), "{} unit", d.name);
                assert_eq!(
                    entry["better"].as_str(),
                    Some(d.better.as_str()),
                    "{} direction",
                    d.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    d.bound,
                    "{} bound",
                    d.name
                );
            }
        }
        let names: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for (w, ours) in doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .zip(crate::workload::WORKLOADS)
        {
            assert_eq!(w["why"].as_str(), Some(ours.why));
            assert!(ours.why.len() <= 200 && !ours.why.contains('\n'));
        }
        assert_eq!(doc["run_seconds"].as_u64(), Some(crate::RUN_SECONDS));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut values = Values::new();
        for (i, d) in END_TO_END.iter().enumerate() {
            values.insert(d.name.to_string(), 1.5 + i as f64);
        }
        let doc = result_line(END_TO_END, &values, 12, 0).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc["correct"].as_bool(), Some(true));
        assert_eq!(doc["attempted"].as_u64(), Some(12));
        for d in END_TO_END {
            let m = &doc["metrics"][d.name];
            assert!(valid_name(d.name));
            assert!(m["value"].as_f64().is_some());
            assert_eq!(m["unit"].as_str(), Some(d.unit));
        }
        assert_eq!(
            result_line(END_TO_END, &values, 12, 1).unwrap()["correct"].as_bool(),
            Some(false)
        );
        // One line, and it parses back.
        let text = doc.to_json_string();
        assert!(!text.contains('\n'));
        assert_eq!(serde_json::from_str(&text).unwrap(), doc);
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_values() {
        let mut values = Values::new();
        assert!(result_line(END_TO_END, &values, 1, 0)
            .unwrap_err()
            .contains("wall_s"));
        for d in END_TO_END {
            values.insert(d.name.to_string(), 1.0);
        }
        values.insert("peak_rss_mb".to_string(), f64::NAN);
        assert!(result_line(END_TO_END, &values, 1, 0)
            .unwrap_err()
            .contains("peak_rss_mb"));
    }
}
