//! The repo benchmark: two-clock end-to-end metrics, per-layer probes,
//! five workloads. See `benchmark/README.md`.
//!
//! ```text
//! prs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one pass; the last stdout line is the result JSON
//! prs-benchmark [--workload <name>] [--seed <n>] [--seconds <s>]
//!     every (or one) workload untraced, then traced, each pass in a
//!     fresh harness process; prints every metric and writes
//!     out/results.json (spans: out/trace/<workload>.json)
//! prs-benchmark --selfcheck [--seed <n>]
//!     two untraced sets back to back; non-zero exit when any
//!     end-to-end metric disagrees beyond its bound
//! ```

mod child;
mod e2e;
mod metrics;
mod parse;
mod probes;
mod span;
mod stats;
mod trace;
mod workload;

use child::Cpus;
use metrics::{describe, MetricDef, Values, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Plan, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: the default measuring window.
pub const RUN_SECONDS: u64 = 10;
const DEFAULT_SEED: u64 = 42;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    selfcheck: bool,
    out: PathBuf,
    results: Option<PathBuf>,
    build_s: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        selfcheck: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        results: None,
        build_s: 0.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => args.out = PathBuf::from(value),
            "--results" => args.results = Some(PathBuf::from(value)),
            "--build-ns" => args.build_s = value.parse::<u64>().map_err(|_| bad())? as f64 / 1e9,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

struct Harness {
    /// This binary, and the directory it shares with `prs` and the
    /// experiment binaries (one target directory holds them all).
    exe: PathBuf,
    bins: PathBuf,
    args: Args,
}

impl Harness {
    fn plan(&self, w: &'static Workload) -> Plan {
        Plan::new(w, self.args.seed, &self.bins, &self.args.out.join(w.name))
    }
}

fn print_metrics(defs: &[MetricDef], values: &Values) {
    for d in defs {
        match values.get(d.name) {
            Some(v) => println!("{}", describe(d, *v)),
            None => println!("  {:<36} (no value)", d.name),
        }
    }
}

fn print_e2e(w: &Workload, r: &e2e::EndToEnd) {
    println!(
        "== {} — end to end ({} checks, {} failed)",
        w.name, r.ops.attempted, r.ops.failed
    );
    print_metrics(END_TO_END, &r.values);
    println!(
        "  wall_s over {} timed repetitions: min {:.4}  q1 {:.4}  median {:.4}  q3 {:.4}  max {:.4}",
        r.wall.n, r.wall.min, r.wall.q1, r.wall.median, r.wall.q3, r.wall.max
    );
    println!(
        "  setup_s over {} set-up cycles: min {:.4}  median {:.4}  max {:.4}",
        r.setup.n, r.setup.min, r.setup.median, r.setup.max
    );
    println!(
        "  ops_failed_share {} of {} attempted",
        r.ops.failed_share(),
        r.ops.attempted
    );
}

fn print_traced(w: &Workload, r: &trace::Traced) {
    println!(
        "== {} — per layer ({} checks, {} failed)",
        w.name, r.ops.attempted, r.ops.failed
    );
    print_metrics(PER_LAYER, &r.values);
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_json_string_pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The contract's single pass: prints the metrics, then the result line.
fn single_pass(h: &Harness, w: &'static Workload, traced: bool) -> Result<(), String> {
    // Only the measuring process pins itself: the orchestrating one must
    // leave its passes every CPU to choose from.
    let cpus = Cpus::pin_harness().map_err(|e| format!("pinning the harness: {e}"))?;
    eprintln!(
        "harness on cpu {}, children on cpu {} ({} allowed), binaries in {}",
        cpus.harness_cpu(),
        cpus.child_cpu(),
        cpus.count(),
        h.bins.display()
    );
    let plan = h.plan(w);
    let (defs, values, ops) = if traced {
        let r = trace::measure(&plan, &cpus, h.args.build_s);
        print_traced(w, &r);
        let path = h.args.out.join("trace").join(format!("{}.json", w.name));
        write_json(&path, &r.tracer.to_value())?;
        (PER_LAYER, r.values, r.ops)
    } else {
        let r = e2e::measure(&plan, &cpus, h.args.seconds);
        print_e2e(w, &r);
        (END_TO_END, r.values, r.ops)
    };
    let line = metrics::result_line(defs, &values, ops.attempted, ops.failed)?;
    println!("{}", line.to_json_string());
    Ok(())
}

/// Runs one single pass in a fresh harness process and returns its
/// result line. A fresh process per pass keeps the measuring harness a
/// few MiB small: a child's `ru_maxrss` starts at the peak RSS of the
/// process that forked it, and forking a grown harness shows up in the
/// wall time of millisecond children.
fn pass_in_fresh_process(h: &Harness, w: &Workload, traced: bool) -> Result<Value, String> {
    let output = std::process::Command::new(&h.exe)
        .args([
            "--workload",
            w.name,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(["--seed", &h.args.seed.to_string()])
        .args(["--seconds", &h.args.seconds.to_string()])
        .args(["--build-ns", &((h.args.build_s * 1e9) as u64).to_string()])
        .arg("--out")
        .arg(&h.args.out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a harness pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(format!(
            "the {} pass (trace {}) failed: {}",
            w.name, traced as u8, output.status
        ));
    }
    serde_json::from_str(line).map_err(|e| format!("{} result line: {e}", w.name))
}

/// A result line's metrics with the catalogue's direction, clock and bound.
fn metric_docs(defs: &[MetricDef], line: &Value) -> Value {
    let map: BTreeMap<String, Value> = defs
        .iter()
        .map(|d| {
            let doc = serde_json::json!({
                "value": line["metrics"][d.name]["value"].clone(),
                "unit": d.unit,
                "better": d.better.as_str(),
                "clock": d.clock.as_str(),
                "bound": d.bound,
            });
            (d.name.to_string(), doc)
        })
        .collect();
    Value::Object(map)
}

/// Every selected workload untraced, then every one traced; returns
/// whether every check passed.
fn full_run(h: &Harness, selected: &[&'static Workload]) -> Result<bool, String> {
    let pass = |traced| -> Result<Vec<Value>, String> {
        selected
            .iter()
            .map(|w| pass_in_fresh_process(h, w, traced))
            .collect()
    };
    let (untraced, traced) = (pass(false)?, pass(true)?);
    let mut ok = true;
    let mut docs = BTreeMap::new();
    for ((w, e), t) in selected.iter().zip(&untraced).zip(&traced) {
        let count = |key: &str| e[key].as_u64().unwrap_or(0) + t[key].as_u64().unwrap_or(0);
        ok &= count("failed") == 0;
        docs.insert(
            w.name.to_string(),
            serde_json::json!({
                "why": w.why,
                "attempted": count("attempted"),
                "failed": count("failed"),
                "end_to_end": metric_docs(END_TO_END, e),
                "per_layer": metric_docs(PER_LAYER, t),
            }),
        );
    }
    let results = serde_json::json!({
        "schema": "prs-benchmark-results-v1",
        "seed": h.args.seed,
        "seconds": h.args.seconds,
        "workloads": Value::Object(docs),
    });
    let path = h
        .args
        .results
        .clone()
        .unwrap_or_else(|| h.args.out.join("results.json"));
    write_json(&path, &results)?;
    println!("results written to {}", path.display());
    Ok(ok)
}

/// Two untraced sets of the same code; they must agree within each
/// metric's own bound on every workload.
fn selfcheck(h: &Harness, selected: &[&'static Workload]) -> Result<bool, String> {
    let set = || -> Result<Vec<Value>, String> {
        selected
            .iter()
            .map(|w| pass_in_fresh_process(h, w, false))
            .collect()
    };
    let sets = [set()?, set()?];
    let mut ok = true;
    println!(
        "{:<28} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for (i, w) in selected.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        ok &= a["failed"].as_u64() == Some(0) && b["failed"].as_u64() == Some(0);
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let value = |line: &Value| line["metrics"][d.name]["value"].as_f64();
            let (x, y) = value(a)
                .zip(value(b))
                .ok_or_else(|| format!("{}: no {}", w.name, d.name))?;
            let diff = (y - x).abs() / x.abs();
            // Virtual numbers are exact at a fixed seed: any difference fails.
            let agrees = if d.clock == metrics::Clock::Virtual {
                x.to_bits() == y.to_bits()
            } else {
                diff <= bound
            };
            ok &= agrees;
            println!(
                "{:<28} {:<20} {:>14.6} {:>14.6} {:>8.3}% {:>6.1}%{}",
                w.name,
                d.name,
                x,
                y,
                diff * 100.0,
                bound * 100.0,
                if agrees { "" } else { "  DISAGREES" }
            );
        }
    }
    println!(
        "selfcheck: {}",
        if ok {
            "the two sets agree within every bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness binary: {e}"))?;
    let bins = exe
        .parent()
        .ok_or("the harness binary has no directory")?
        .to_path_buf();
    let h = Harness { exe, bins, args };
    let selected: Vec<&'static Workload> = match h.args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    if h.args.selfcheck {
        return selfcheck(&h, &selected);
    }
    match (h.args.workload, h.args.trace) {
        (Some(w), Some(traced)) => single_pass(&h, w, traced).map(|()| true),
        _ => full_run(&h, &selected),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
