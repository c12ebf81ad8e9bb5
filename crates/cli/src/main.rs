//! `prs` — run the paper's SPMD applications on simulated GPU+CPU
//! clusters from the command line, and interrogate the analytic
//! scheduler.
//!
//! ```sh
//! prs run --app cmeans --nodes 4 --points 100000 --dims 64 --clusters 10
//! prs run --app gemv --mode gpu --timeline
//! prs advise --ai 12.5 --residency staged
//! prs profiles
//! ```

#![forbid(unsafe_code)]

use device::{render_ascii, to_chrome_trace, to_chrome_trace_with_flows, FlowArrow};
use obs::jsonl::EventLine;
use obs::rollup::{rollup, RollupConfig};
use obs::{AuditLog, EventView, MetricsRegistry, Obs};
use prs_apps::{BatchFft, CMeans, CsrMatrix, DaKmeans, Dgemm, Gemv, Gmm, KMeans, Spmv, WordCount};
use prs_cli::CliError::{self, Failed, Usage};
use prs_cli::{
    parse_profile, parse_residency, parse_run, AppKind, ArgSpec, RunOptions, WORDS_PER_CLUSTER,
};
use prs_core::{run_iterative_observed, run_job_observed, ClusterSpec, JobResult};
use prs_data::gaussian::clustering_workload;
use prs_data::matrix::MatrixF32;
use prs_data::rng::SplitMix64;
use roofline::model::DataResidency;
use roofline::schedule::{split_multi_gpu, Workload};
use std::path::Path;
use std::sync::Arc;

/// Prints to stdout, exiting quietly when the pipe is closed (`prs | head`
/// must not panic).
macro_rules! say {
    ($($arg:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// What every subcommand returns; see [`CliError`] for the exit codes.
type Cmd = Result<(), CliError>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("advise") => cmd_advise(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("postmortem") => cmd_postmortem(&args[1..]),
        Some("profiles") => cmd_profiles(&args[1..]),
        Some("help") => cmd_help(&args[1..]),
        Some("--help") | Some("-h") | None => cmd_help(&[]),
        Some(other) => {
            print_help();
            Err(Usage(format!("unknown command '{other}'")))
        }
    };
    let (code, msg) = match outcome {
        Ok(()) => return,
        Err(Usage(msg)) => (2, msg),
        Err(Failed(msg)) => (1, msg),
    };
    eprintln!("error: {msg}");
    std::process::exit(code);
}

/// Reads an input file a command was pointed at.
fn read(path: impl AsRef<Path>) -> Result<String, CliError> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| Failed(format!("reading {}: {e}", path.display())))
}

/// Writes an output file.
fn write(path: impl AsRef<Path>, content: impl AsRef<[u8]>) -> Cmd {
    let path = path.as_ref();
    std::fs::write(path, content).map_err(|e| Failed(format!("writing {}: {e}", path.display())))
}

/// Writes a JSON document, pretty-printed with a final newline.
fn write_json(path: impl AsRef<Path>, doc: &serde_json::Value) -> Cmd {
    write(path, serde_json::to_string_pretty(doc).unwrap() + "\n")
}

/// The directory artifacts derived from `bundle` are written to: the
/// bundle itself, or the directory holding it when a file was named.
fn out_dir(bundle: &str) -> std::path::PathBuf {
    let p = Path::new(bundle);
    if p.is_dir() { p.to_path_buf() } else { p.parent().unwrap_or(p).to_path_buf() }
}

/// The options of `prs run` / `prs sweep`; a bad one is answered with the
/// option list on stdout as well as the error.
fn run_options(args: &[String]) -> Result<RunOptions, CliError> {
    parse_run(args).map_err(|e| {
        print_help();
        Usage(e)
    })
}

/// The cluster `prs run` and `prs sweep` build: `--nodes`
/// copies of the resolved profile on QDR InfiniBand.
fn cluster(opts: &RunOptions) -> Result<ClusterSpec, String> {
    let profile = load_profile(opts.profile_file.as_ref(), &opts.profile)?;
    Ok(ClusterSpec::homogeneous(
        opts.nodes,
        profile,
        netsim::NetworkParams::infiniband_qdr(),
    ))
}

/// The `--rules <toml>` override of the built-in SLO rules.
fn watch_rules(path: Option<&String>) -> Result<watch::WatchConfig, CliError> {
    let Some(path) = path else {
        return Ok(watch::WatchConfig::default());
    };
    let text = read(path)?;
    watch::WatchConfig::from_toml(&text).map_err(|e| Usage(format!("{path}: {e}")))
}

fn print_help() {
    say!(
        "prs — co-process SPMD computation on simulated CPUs+GPUs clusters

USAGE:
  prs run [options]       run an application end to end
  prs sweep [options]     sweep static CPU fractions and compare with Eq (8)
  prs advise [options]    print the analytic scheduling decision (Eq 8-11)
  prs trace --dir <d>     summarize events.jsonl + decisions.jsonl from --obs
                          (--flows adds the cross-node message-flow summary)
  prs metrics --dir <d>   summarize metrics.prom from --obs
  prs analyze <d>         critical-path + blame analysis of an --obs dir;
                          writes report.json and critical_path.json into it
  prs watch <d>           run the health watchdog over an --obs dir: online
                          detectors + SLO burn-rate rules; writes
                          alerts.jsonl and incidents.jsonl into it
                          (--rules <toml> overrides the built-in SLO rules,
                          see docs/alerting.md)
  prs top <d>             live dashboard replaying an --obs dir in virtual
                          time; --snapshot <t> renders one deterministic
                          frame, --window <s> sets the gauge window,
                          --frames <n> the replay frame count; frames
                          include the watchdog's alert lane
  prs profile <d>         virtual-time sampling profile of an --obs dir:
                          folds the recorded stack frames at a fixed
                          virtual period into per-phase / per-node /
                          per-lane-class sample counts; --folded prints
                          collapsed-stack lines (flamegraph input),
                          --top <n> caps the hot-frame table (10),
                          --period <s> overrides the sample period
                          (see docs/profiling.md)
  prs diff <base> <cand>  differential regression attribution between
                          two --obs dirs: decomposes the virtual-makespan
                          delta into per-phase / per-node / per-blame
                          contributions and writes diff.json into the
                          candidate dir
  prs chaos [options]     sample seeded fault plans (node/master crashes,
                          stragglers, speculation) and assert the recovery
                          invariants; writes chaos_report.json
                          (--trials <n> (32), --seed <n> (7),
                          --engine <legacy|calendar|parallel> (calendar),
                          --out <file>, --json; --score-watch also scores
                          the health watchdog against the injected fault
                          plans and writes watch_score.json
                          (--watch-out <file>, --rules <toml>);
                          --record arms the bounded-memory flight recorder
                          per trial and writes incident captures +
                          postmortems under --record-out <dir>
                          (chaos_records);
                          --churn instead runs the elastic-membership grid
                          — seeded scale-out/drain/evict plans composed
                          with crashes through the elastic driver — and
                          writes churn_report.json)
  prs postmortem <d>      assemble the incident postmortem of a recorded
                          dir: joins capture-*.jsonl with incidents.jsonl,
                          decisions.jsonl and stacks.jsonl, writes
                          postmortem.json into <d> and prints the
                          human-readable report (see docs/postmortem.md)
  prs calibrate [options] fit a hardware profile from an --obs trace
  prs profiles            list the built-in fat-node hardware profiles
  prs help                this text

RUN OPTIONS (defaults in parentheses):
  --app <{apps}>   (cmeans)
  --nodes <n>                 cluster size (2)
  --profile <delta|bigred2|micro>   node hardware (delta)
  --engine <legacy|calendar|parallel>   simulation engine (calendar);
                              all modes are bit-identical in outcome,
                              parallel shards per-node event queues
                              (see docs/engine.md)
  --profile-file <toml>       node hardware from a `prs calibrate` TOML
  --mode <static|static:<p>|dynamic:<block>|gpu|cpu>   (static)
  --calibrate <off|online|online:<alpha>>   online roofline recalibration:
                              re-fit the profile and re-solve Eq (8)
                              every iteration (off)
  --iterations <n>            iteration cap for iterative apps (10)
  --points / --dims / --clusters    workload shape (50000 / 32 / 8)
  --gpus <n>                  GPUs engaged per node (1)
  --streams <n>               CUDA streams per GPU (2)
  --blocks-per-core <n>       CPU blocks per core (4)
  --seed <n>                  RNG seed (42)
  --timeline                  print the execution Gantt chart
  --trace <file>              write a Chrome-tracing JSON file
  --obs <dir>                 write events.jsonl, metrics.prom,
                              decisions.jsonl, rollup.jsonl and a
                              flow-linked trace.json into <dir>
  --record                    arm the bounded-memory flight recorder:
                              retain a sliding virtual-time window of
                              events, fold evicted ones into rollup bins,
                              and capture the window around every incident
                              (with --obs the bundle gains capture-*.jsonl
                              and postmortem.json; without it the run
                              stays O(budget) in resident events)
  --record-window <s>         recorder retention window in virtual
                              seconds ({rec_window})
  --record-budget <n>         max resident recorder events ({rec_budget})
  --membership <toml>         run through the elastic driver with this
                              membership plan (scale-out / drain / evict
                              events in virtual time; app must be cmeans,
                              see docs/elasticity.md)
  --autoscale                 attach the hysteresis autoscaler (default
                              policy); composes with --membership
  --json                      machine-readable output

ADVISE OPTIONS:
  --ai <flops/byte>           arithmetic intensity (12.5)
  --residency <staged|resident>   GPU data residency (staged)
  --profile <delta|bigred2>   (delta)
  --gpus <n>                  (1)
  --from-trace <path>         instead of a hypothetical: report the
                              analytic model's predicted-vs-observed
                              error from a decisions.jsonl (or --obs dir)
                              (also accepts --profile-file <toml>)

CALIBRATE OPTIONS:
  --from-trace <path>         events.jsonl or an --obs dir (required)
  --out <file> / -o <file>    write the fitted profile TOML here
                              (default: print to stdout)
  --profile <delta|bigred2>   seed profile for the EWMA fit (delta)
  --alpha <a>                 EWMA smoothing factor in [0,1] ({alpha})",
        apps = AppKind::names().join("|"),
        alpha = insight::DEFAULT_ALPHA,
        rec_window = obs::RecorderConfig::enabled().window,
        rec_budget = obs::RecorderConfig::enabled().budget
    );
}

/// `prs help`; like every subcommand it refuses arguments it does not take.
fn cmd_help(args: &[String]) -> Cmd {
    ArgSpec::new(&[], &[], 0).parse(args)?;
    print_help();
    Ok(())
}

fn cmd_profiles(args: &[String]) -> Cmd {
    ArgSpec::new(&[], &[], 0).parse(args)?;
    for p in [
        parse_profile("delta").unwrap(),
        parse_profile("bigred2").unwrap(),
        parse_profile("micro").unwrap(),
    ] {
        say!("{}:", p.name.to_lowercase());
        say!(
            "  CPU : {} — {} cores, {:.0} Gflop/s peak, {:.0} GB/s DRAM",
            p.cpu.model,
            p.cpu.cores,
            p.cpu.peak_flops / 1e9,
            p.cpu.dram_bw / 1e9
        );
        for (i, g) in p.gpus.iter().enumerate() {
            say!(
                "  GPU{i}: {} — {} cores, {:.0} Gflop/s peak, {:.0} GB/s DRAM, {:.2} GB/s eff PCI-E, {} GB",
                g.model,
                g.cores,
                g.peak_flops / 1e9,
                g.dram_bw / 1e9,
                g.pcie_eff_bw / 1e9,
                g.mem_bytes >> 30,
            );
        }
    }
    Ok(())
}

/// `prs sweep`: the paper's Table-5 profiling experiment for any app —
/// run a grid of static splits, report the empirical optimum next to the
/// analytic prediction.
fn cmd_sweep(args: &[String]) -> Cmd {
    let mut opts = run_options(args)?;
    let spec = cluster(&opts)?;
    say!("sweeping static CPU fractions (0%..100%, step 10%) ...");
    let mut best = (f64::INFINITY, 0.0);
    for i in 0..=10 {
        let p = i as f64 / 10.0;
        opts.config.scheduling = prs_core::SchedulingMode::Static { p_override: Some(p) };
        let (m, _, _) = dispatch(&opts, &spec, None, Obs::disabled())
            .map_err(|e| Failed(format!("at p = {p}: {e}")))?;
        let t = m.compute_seconds;
        say!("  p = {:>3.0}%  ->  {:10.3} ms", p * 100.0, t * 1e3);
        if t < best.0 {
            best = (t, p);
        }
    }
    // Analytic prediction for the same app: rebuild once in static mode.
    opts.config.scheduling = prs_core::SchedulingMode::Static { p_override: None };
    let (m, label, _) = dispatch(&opts, &spec, None, Obs::disabled()).map_err(Failed)?;
    let p_eq8 = m.cpu_fraction.unwrap_or(f64::NAN);
    say!(
        "\n{label}: empirical optimum p = {:.0}% ({:.3} ms); Equation (8) says {:.1}% ({:.3} ms)",
        best.1 * 100.0,
        best.0 * 1e3,
        p_eq8 * 100.0,
        m.compute_seconds * 1e3
    );
    say!(
        "analytic-vs-profiled error: {:.1} percentage points (paper's Table-5 bound: < 10)",
        (p_eq8 - best.1).abs() * 100.0
    );
    Ok(())
}

fn cmd_advise(args: &[String]) -> Cmd {
    const ARGS: ArgSpec = ArgSpec::new(
        &[
            "ai",
            "residency",
            "profile",
            "profile-file",
            "gpus",
            "from-trace",
        ],
        &[],
        0,
    );
    let kv = ARGS.parse(args)?;
    // `--from-trace` switches advise from the hypothetical (given AI,
    // what split?) to the retrospective (how well did the model do?).
    if let Some(path) = kv.get("from-trace") {
        return advise_from_trace(path);
    }
    let ai: f64 = kv.parsed("ai", 12.5)?;
    let residency = kv
        .get("residency")
        .map_or(Ok(DataResidency::Staged), |v| parse_residency(v))?;
    let profile = load_profile(
        kv.get("profile-file"),
        kv.get("profile").map_or("delta", String::as_str),
    )?;
    let gpus: usize = kv.parsed("gpus", 1)?;
    if !(ai > 0.0 && ai.is_finite()) {
        return Err(Usage(format!("--ai must be a positive number, got {ai}")));
    }
    if gpus == 0 || gpus > profile.gpus.len() {
        return Err(Usage(format!(
            "--gpus must be 1..={} for profile '{}'",
            profile.gpus.len(),
            profile.name
        )));
    }

    let w = Workload::uniform(ai, residency);
    let d = split_multi_gpu(&profile, &w, gpus);
    say!("{} | AI = {ai} flops/byte, {residency:?}, {gpus} GPU(s)", profile.name);
    say!("  regime          : {:?}", d.regime);
    say!(
        "  ridge points    : A_cr = {:.2}, A_gr = {:.2}",
        profile.cpu_ridge(),
        profile.gpu_ridge(residency)
    );
    say!(
        "  Equation (8)    : {:.1}% CPU / {:.1}% GPU",
        d.cpu_fraction * 100.0,
        (1.0 - d.cpu_fraction) * 100.0
    );
    say!(
        "  predicted rates : CPU {:.1} Gflop/s, GPU {:.1} Gflop/s",
        d.cpu_flops / 1e9,
        d.gpu_flops / 1e9
    );
    Ok(())
}

/// Accepts either a `decisions.jsonl` file or an `--obs` output
/// directory containing one.
fn resolve_decisions_path(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        p.join("decisions.jsonl")
    } else {
        p.to_path_buf()
    }
}

/// Reads a `decisions.jsonl` strictly ([`AuditLog::read_jsonl`]): a
/// damaged or truncated file is an error naming it, never half a log.
fn parse_decisions(text: &str, file: &Path) -> Result<Vec<obs::DecisionRecord>, CliError> {
    AuditLog::read_jsonl(text).map_err(|e| Failed(format!("{}: {e}", file.display())))
}

/// [`parse_decisions`] for the readers that can do without the audit
/// log: a *missing* file reads as no decisions.
fn decisions_if_present(file: &Path) -> Result<Vec<obs::DecisionRecord>, CliError> {
    match std::fs::read_to_string(file) {
        Ok(text) => parse_decisions(&text, file),
        Err(_) => Ok(Vec::new()),
    }
}

/// `prs advise --from-trace`: replay an audit log and report the
/// roofline model's predicted-vs-observed error per decision.
fn advise_from_trace(path: &str) -> Cmd {
    let file = resolve_decisions_path(path);
    let recs = parse_decisions(&read(&file)?, &file)?;
    if recs.is_empty() {
        return Err(Failed(format!("no decisions found in {}", file.display())));
    }
    say!(
        "{} audited decision(s) from {}",
        recs.len(),
        file.display()
    );
    say!("  iter node mode     trigger             p      pred_map_s   obs_map_s    err");
    let mut errs: Vec<f64> = Vec::new();
    for r in &recs {
        let (obs_s, err_s) = match (r.observed_map_secs, r.map_error()) {
            (Some(o), Some(e)) => {
                errs.push(e);
                (format!("{o:<12.6}"), format!("{:.1}%", e * 100.0))
            }
            _ => ("-".into(), "-".into()),
        };
        say!(
            "  {:>4} {:>4} {:<8} {:<18} {:>6.3} {:<12.6} {:<12} {}",
            r.iteration,
            r.node,
            r.mode,
            r.trigger,
            r.cpu_fraction,
            r.predicted_map_secs,
            obs_s,
            err_s
        );
    }
    if !errs.is_empty() {
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let worst = errs.iter().cloned().fold(0.0, f64::max);
        say!(
            "\nanalytic-model map-time error: mean {:.1}%, worst {:.1}% over {} completed decision(s)",
            mean * 100.0,
            worst * 100.0,
            errs.len()
        );
    }
    Ok(())
}

const MISSING_BUNDLE: &str = "missing --dir <obs output directory>";

/// The whole argument list of the plain bundle readers: the `--obs`
/// directory, as the first argument or as `--dir`.
fn bundle_dir(args: &[String], missing: &str) -> Result<String, String> {
    ArgSpec::new(&["dir"], &[], 1).parse(args)?.dir(missing)
}

/// `prs trace`: summarize `events.jsonl` and `decisions.jsonl`.
/// `--flows` adds the paired `msg-send`/`msg-recv` causal-edge summary.
fn cmd_trace(args: &[String]) -> Cmd {
    const ARGS: ArgSpec = ArgSpec::new(&["dir"], &["flows"], 1);
    let kv = ARGS.parse(args)?;
    let dir = kv.dir(MISSING_BUNDLE)?;
    let events_path = std::path::Path::new(&dir).join("events.jsonl");
    let text = read(&events_path)?;
    let mut recs = decisions_if_present(&Path::new(&dir).join("decisions.jsonl"))?;
    let mut by_kind: std::collections::BTreeMap<String, (u64, f64)> =
        std::collections::BTreeMap::new();
    let mut t_max = 0.0f64;
    let mut total = 0u64;
    let mut recovery: Vec<(f64, String, String)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        // A summary, not a validator: lines that are not JSON are passed
        // over and absent members read as "?" / 0.
        let f = match obs::jsonl::read_event_line(line, &mut obs::jsonl::NoAttrs) {
            Err(_) | Ok(EventLine::Meta { .. }) => continue,
            Ok(EventLine::NotObject) => Default::default(),
            Ok(EventLine::Event(f)) => f,
        };
        let kind = f.kind.as_deref().unwrap_or("?").to_string();
        let lane = f.lane.as_deref().unwrap_or("?").to_string();
        let t = f.t.unwrap_or(0.0);
        let dur = f.dur.unwrap_or(0.0);
        total += 1;
        t_max = t_max.max(t + dur);
        let e = by_kind.entry(kind.clone()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += dur;
        if matches!(
            kind.as_str(),
            "retry" | "reassign" | "gpu-crash" | "gpu-daemon-down" | "block-requeued"
        ) {
            recovery.push((t, kind, lane));
        }
    }
    if total == 0 {
        return Err(Failed(format!(
            "no events found in {} — was the run recorded with --obs?",
            events_path.display()
        )));
    }
    say!("{total} event(s) over {t_max:.6} virtual seconds ({})", events_path.display());
    say!("  kind                 count   busy_s");
    for (kind, (count, busy)) in &by_kind {
        say!("  {kind:<20} {count:>5}   {busy:.6}");
    }
    if recovery.is_empty() {
        say!("\nno recovery events: fault-free run");
    } else {
        say!("\n{} recovery event(s):", recovery.len());
        for (t, kind, lane) in &recovery {
            say!("  t={t:<12.6} {kind:<16} on {lane}");
        }
    }
    if kv.flag("flows") {
        let events = read_trace_events(&dir)?;
        let flows = insight::pair_flows(&events);
        if flows.is_empty() {
            say!("\nno message flows (run recorded before flow tracing, or single node)");
        } else {
            let bytes: f64 = flows.iter().map(|f| f.bytes).sum();
            let mean_lat =
                flows.iter().map(insight::Flow::latency).sum::<f64>() / flows.len() as f64;
            say!(
                "\n{} message flow(s), {bytes:.0} B total, mean latency {mean_lat:.6}s:",
                flows.len()
            );
            // Aggregate by (src lane, dst lane) edge.
            let mut edges: std::collections::BTreeMap<(String, String), (u64, f64, f64)> =
                std::collections::BTreeMap::new();
            for f in &flows {
                let e = edges
                    .entry((f.src_lane.clone(), f.dst_lane.clone()))
                    .or_insert((0, 0.0, 0.0));
                e.0 += 1;
                e.1 += f.bytes;
                e.2 += f.latency();
            }
            say!("  {:<14} -> {:<14} {:>6} {:>12} {:>12}", "src", "dst", "count", "bytes", "mean_lat_s");
            for ((src, dst), (count, b, lat)) in &edges {
                say!(
                    "  {src:<14} -> {dst:<14} {count:>6} {b:>12.0} {:>12.6}",
                    lat / *count as f64
                );
            }
        }
    }
    // Decision summary: the iterations where the model was most wrong.
    recs.retain(|r| r.map_error().is_some());
    if !recs.is_empty() {
        recs.sort_by(|a, b| {
            b.map_error()
                .unwrap_or(0.0)
                .total_cmp(&a.map_error().unwrap_or(0.0))
        });
        say!("\nmost divergent scheduling decisions (predicted vs observed map time):");
        for r in recs.iter().take(5) {
            say!(
                "  iter {:>3} node {:>2} [{}]: p = {:.3}, predicted {:.6}s, observed {:.6}s ({:+.1}%)",
                r.iteration,
                r.node,
                r.regime,
                r.cpu_fraction,
                r.predicted_map_secs,
                r.observed_map_secs.unwrap_or(0.0),
                r.map_error().unwrap_or(0.0) * 100.0
            );
        }
    }
    Ok(())
}

/// `prs metrics`: summarize `metrics.prom`.
fn cmd_metrics(args: &[String]) -> Cmd {
    let dir = bundle_dir(args, MISSING_BUNDLE)?;
    let path = std::path::Path::new(&dir).join("metrics.prom");
    let samples = MetricsRegistry::parse_samples(&read(&path)?);
    if samples.is_empty() {
        return Err(Failed(format!("no samples found in {}", path.display())));
    }
    let pick = |prefix: &str| -> Vec<(String, f64)> {
        samples
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .cloned()
            .collect()
    };
    let job: Vec<(&str, &str)> = vec![
        ("prs_total_seconds", "total virtual seconds"),
        ("prs_setup_seconds", "setup seconds"),
        ("prs_compute_seconds", "compute seconds"),
        ("prs_iterations", "iterations"),
        ("prs_seconds_lost_to_faults", "seconds lost to faults"),
    ];
    say!("job ({}):", path.display());
    for (key, label) in job {
        if let Some((_, v)) = samples.iter().find(|(k, _)| k == key) {
            say!("  {label:<24} {v}");
        }
    }
    let util = pick("prs_device_utilization");
    if !util.is_empty() {
        say!("\ndevice utilization:");
        for (k, v) in &util {
            let dev = k
                .split("device=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .unwrap_or(k);
            say!("  {dev:<16} {:>6.1}%", v * 100.0);
        }
    }
    for (prefix, title) in [
        ("prs_bytes_moved_total", "bytes moved (PCI-E)"),
        ("prs_net_bytes_total", "bytes sent (network)"),
        ("prs_map_tasks_total", "map tasks"),
        ("prs_recovery_total", "recovery actions"),
        ("prs_queue_depth_peak", "peak queue depth"),
    ] {
        let rows = pick(prefix);
        if rows.is_empty() {
            continue;
        }
        say!("\n{title}:");
        for (k, v) in &rows {
            let label = k.strip_prefix(prefix).unwrap_or(k);
            say!("  {label:<40} {v}");
        }
    }
    Ok(())
}

/// Reads `events.jsonl` from a path that is either the file itself or an
/// `--obs` output directory containing one.
fn read_trace_events(path: &str) -> Result<Vec<insight::TraceEvent>, CliError> {
    let p = std::path::Path::new(path);
    let file = if p.is_dir() { p.join("events.jsonl") } else { p.to_path_buf() };
    let events = insight::parse_events_jsonl(&read(&file)?)
        .map_err(|e| Failed(format!("{}: {e}", file.display())))?;
    if events.is_empty() {
        return Err(Failed(format!("no events found in {}", file.display())));
    }
    Ok(events)
}

/// `prs analyze`: critical-path + blame analysis of an `--obs` bundle.
/// Writes deterministic `report.json` and `critical_path.json` next to
/// the events and prints the per-iteration summary table.
fn cmd_analyze(args: &[String]) -> Cmd {
    let dir = bundle_dir(args, MISSING_BUNDLE)?;
    let events = read_trace_events(&dir)?;
    let analysis = insight::analyze(&events);
    if analysis.iterations.is_empty() {
        return Err(Failed(format!(
            "no iteration spans found in {dir}: was the run recorded with --obs?"
        )));
    }
    let out_dir = out_dir(&dir);
    write(
        out_dir.join("report.json"),
        insight::report_json(&analysis),
    )?;
    write(
        out_dir.join("critical_path.json"),
        insight::critical_path_json(&analysis),
    )?;
    say!("{}", insight::summary_table(&analysis));
    eprintln!(
        "analysis written to {}/report.json and {}/critical_path.json",
        out_dir.display(),
        out_dir.display()
    );
    Ok(())
}

/// `prs watch`: run the health watchdog offline over a recorded `--obs`
/// bundle, write `alerts.jsonl` + `incidents.jsonl` next to the events,
/// and print the incident summary.
fn cmd_watch(args: &[String]) -> Cmd {
    const ARGS: ArgSpec = ArgSpec::new(&["dir", "rules"], &[], 1);
    let kv = ARGS.parse(args)?;
    let dir = kv.dir(MISSING_BUNDLE)?;
    let cfg = watch_rules(kv.get("rules"))?;
    let events = read_trace_events(&dir)?;
    let out_dir = out_dir(&dir);
    let decisions = decisions_if_present(&out_dir.join("decisions.jsonl"))?;
    let out = watch::watch(&events, &decisions, &cfg);
    write(out_dir.join("alerts.jsonl"), out.alerts_jsonl())?;
    write(out_dir.join("incidents.jsonl"), out.incidents_jsonl())?;
    if out.alerts.is_empty() {
        say!("healthy: no alerts fired over {} event(s)", events.len());
    } else {
        say!(
            "{} alert(s), {} incident(s) over {} event(s):",
            out.alerts.len(),
            out.incidents.len(),
            events.len()
        );
        for inc in &out.incidents {
            let nodes = if inc.nodes.is_empty() {
                "cluster".to_string()
            } else {
                inc.nodes
                    .iter()
                    .map(|n| format!("node{n}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            say!(
                "  #{} [{}] t={:.6}..{:.6} detect={:.6} {} on {} ({} alert(s), {})",
                inc.id,
                inc.severity.as_str(),
                inc.t_start,
                inc.t_end,
                inc.t_detect,
                inc.kind.as_str(),
                nodes,
                inc.alerts.len(),
                inc.blame.as_str()
            );
        }
    }
    eprintln!(
        "watch artifacts written to {}/alerts.jsonl and {}/incidents.jsonl",
        out_dir.display(),
        out_dir.display()
    );
    Ok(())
}

/// `prs calibrate`: EWMA-fit a hardware profile from a recorded trace
/// and persist it as TOML (`--profile-file` loads it back).
fn cmd_calibrate(args: &[String]) -> Cmd {
    // parse_kv only knows `--key`; accept the conventional `-o` too.
    let args: Vec<String> = args
        .iter()
        .map(|a| if a == "-o" { "--out".to_string() } else { a.clone() })
        .collect();
    const ARGS: ArgSpec = ArgSpec::new(&["from-trace", "out", "profile", "alpha"], &[], 0);
    let kv = ARGS.parse(&args)?;
    let trace = kv
        .get("from-trace")
        .ok_or_else(|| Usage("missing --from-trace <events.jsonl or --obs dir>".to_string()))?;
    let base = parse_profile(kv.get("profile").map_or("delta", String::as_str))?;
    let alpha: f64 = kv.parsed("alpha", insight::DEFAULT_ALPHA)?;
    if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
        return Err(Usage(format!("--alpha {alpha} out of [0,1]")));
    }
    let events = read_trace_events(trace)?;
    let cal = insight::fit_from_events(base, alpha, &events);
    let counts = cal.samples;
    if cal.total_samples() == 0 {
        eprintln!(
            "warning: no compute or transfer spans in the trace; \
             the fitted profile equals the '{}' seed",
            cal.profile().name
        );
    }
    let toml = insight::profile_toml::to_toml(&cal);
    match kv.get("out") {
        Some(path) => {
            write(path, &toml)?;
            eprintln!(
                "fitted profile written to {path} ({} cpu / {} gpu / {} pcie / {} net samples); \
                 load it with --profile-file",
                counts.cpu, counts.gpu, counts.pcie, counts.net
            );
        }
        None => say!("{toml}"),
    }
    Ok(())
}

/// `prs top`: terminal dashboard over an `--obs` bundle, replayed in
/// virtual time. `--snapshot <t>` renders exactly one frame (the mode
/// the determinism tests pin); without it the replay renders `--frames`
/// evenly spaced instants up to the trace horizon.
fn cmd_top(args: &[String]) -> Cmd {
    const ARGS: ArgSpec = ArgSpec::new(&["dir", "snapshot", "window", "frames"], &[], 1);
    let kv = ARGS.parse(args)?;
    let dir = kv.dir("missing <obs output directory>")?;
    let snapshot: Option<f64> = kv.opt("snapshot")?;
    let window: Option<f64> = kv.opt("window")?;
    let frames: usize = kv.parsed("frames", 8)?;
    if frames == 0 {
        return Err(Usage("--frames must be at least 1".to_string()));
    }
    let events = read_trace_events(&dir)?;
    let decisions = decisions_if_present(&resolve_decisions_path(&dir))?;
    // Incident→capture links from a `--record`'ed bundle, marking
    // captured incidents in the alert lane.
    let captures: std::collections::BTreeMap<u64, String> =
        std::fs::read_to_string(std::path::Path::new(&dir).join("incidents.jsonl"))
            .map(|text| {
                text.lines()
                    .filter_map(|l| serde_json::from_str(l).ok())
                    .filter_map(|v: serde_json::Value| {
                        let o = v.as_object()?;
                        Some((
                            o.get("id").and_then(serde_json::Value::as_u64)?,
                            o.get("capture")?.as_str()?.to_string(),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
    let replay = prs_cli::top::Replay::new(&events, &decisions, &captures);
    let horizon = replay.horizon();
    let window = window.unwrap_or_else(|| (horizon / 8.0).max(1e-9));
    let frame_at = |t: f64| replay.frame(t, window);
    match snapshot {
        Some(t) => say!("{}", frame_at(t)),
        None => {
            for i in 1..=frames {
                let t = horizon * i as f64 / frames as f64;
                say!("{}", "─".repeat(72));
                say!("{}", frame_at(t));
            }
        }
    }
    Ok(())
}

/// Loads the profiler's frame set from an `--obs` bundle: `stacks.jsonl`
/// when present, otherwise reconstructed from `events.jsonl` span events
/// (bundles recorded before stack recording existed still profile).
/// Returns the frames plus the bundle's event horizon in virtual seconds.
fn load_frame_set(dir: &str) -> Result<(obs::FrameSet, f64), CliError> {
    let p = std::path::Path::new(dir);
    let stacks = if p.is_dir() { p.join("stacks.jsonl") } else { p.to_path_buf() };
    if let Ok(text) = std::fs::read_to_string(&stacks) {
        let set = obs::FrameSet::parse_stacks_jsonl(&text)
            .map_err(|e| Failed(format!("{}: {e}", stacks.display())))?;
        if !set.is_empty() {
            // The sampling horizon still comes from the full event
            // stream so trailing span-less time is counted: a pass that
            // keeps only `t`/`dur`. A bundle without events samples to
            // its last frame; one whose events are damaged is refused.
            let events = p.join("events.jsonl");
            let horizon = match std::fs::read_to_string(&events) {
                Ok(text) => obs::jsonl::events_horizon(&text)
                    .map_err(|e| Failed(format!("{}: {e}", events.display())))?,
                Err(_) => set.horizon(),
            };
            return Ok((set, horizon));
        }
    }
    let events = read_trace_events(dir)?;
    let horizon = events.iter().map(insight::TraceEvent::end).fold(0.0, f64::max);
    let frames: Vec<obs::Frame> = events
        .iter()
        .filter(|e| e.dur.is_some())
        .map(|e| obs::Frame {
            lane: e.lane.to_string(),
            frame: e.kind.to_string(),
            t0: e.t,
            t1: e.end(),
        })
        .collect();
    let set = obs::FrameSet::from_frames(frames);
    if set.is_empty() {
        return Err(Failed(format!(
            "no stack frames found in {dir} — was the run recorded with --obs?"
        )));
    }
    Ok((set, horizon))
}

/// `prs profile <dir> [--folded] [--top <n>] [--period <s>]`: fold the
/// recorded stack frames at a fixed virtual sampling period and print
/// the per-phase / per-node / hot-frame summary (or the collapsed-stack
/// lines with `--folded`).
fn cmd_profile(args: &[String]) -> Cmd {
    const ARGS: ArgSpec = ArgSpec::new(&["dir", "top", "period"], &["folded"], 1);
    let kv = ARGS.parse(args)?;
    let dir = kv.dir(MISSING_BUNDLE)?;
    let top: usize = kv.parsed("top", 10)?;
    let period: f64 = kv.parsed("period", obs::profile::DEFAULT_PERIOD_S)?;
    if period <= 0.0 {
        return Err(Usage(format!("--period {period}: must be positive")));
    }
    let (set, horizon) = load_frame_set(&dir)?;
    let prof = obs::profile(&set, horizon, period);
    if kv.flag("folded") {
        say!("{}", prof.to_folded().trim_end());
        return Ok(());
    }
    say!(
        "{} sample(s) at {:.0} ns virtual period over {:.6} s ({} frames, {} lanes)",
        prof.samples,
        prof.period_s * 1e9,
        prof.horizon_s,
        set.frames().len(),
        prof.lanes.len()
    );
    say!("\nphases (virtual-time samples):");
    say!("  {:<10} {:>9} {:>7}   by lane class", "phase", "samples", "share");
    for (phase, pp) in &prof.phases {
        let share = if prof.samples > 0 {
            100.0 * pp.samples as f64 / prof.samples as f64
        } else {
            0.0
        };
        let classes: Vec<String> =
            pp.by_class.iter().map(|(c, n)| format!("{c}:{n}")).collect();
        say!("  {phase:<10} {:>9} {share:>6.1}%   {}", pp.samples, classes.join(" "));
    }
    say!("\nhot frames (self samples):");
    say!("  {:<16} {:>9} {:>9}", "frame", "self", "total");
    for (name, fp) in prof.ranked_frames().into_iter().take(top) {
        say!("  {name:<16} {:>9} {:>9}", fp.self_samples, fp.total_samples);
    }
    Ok(())
}

/// `prs diff <baseline> <candidate>`: attribute the virtual-makespan
/// delta between two `--obs` bundles. Writes `diff.json` into the
/// candidate directory and prints the decomposition table.
fn cmd_diff(args: &[String]) -> Cmd {
    let kv = ArgSpec::new(&[], &[], 2).parse(args)?;
    let [base_dir, cand_dir] = kv.positionals.as_slice() else {
        return Err(Usage(
            "usage: prs diff <baseline obs dir> <candidate obs dir>".to_string(),
        ));
    };
    let base_events = read_trace_events(base_dir)?;
    let cand_events = read_trace_events(cand_dir)?;
    let d = insight::diff_events(&base_events, &cand_events);
    let path = out_dir(cand_dir).join("diff.json");
    write(&path, d.to_json())?;
    say!("{}", d.table().trim_end());
    eprintln!("diff written to {}", path.display());
    Ok(())
}

/// `prs chaos [--trials <n>] [--seed <n>] [--out <file>] [--json]`:
/// sample seeded fault plans across a cluster/workload grid, run each
/// through the epoch driver, and assert the recovery invariants
/// (result bit-equality with the fault-free run, flow conservation,
/// speculation reconciliation, counter consistency, a monotone virtual
/// clock). Writes a deterministic `chaos_report.json`; exits 1 when any
/// trial violates an invariant.
fn cmd_chaos(args: &[String]) -> Cmd {
    const ARGS: ArgSpec = ArgSpec::new(
        &[
            "trials",
            "seed",
            "engine",
            "out",
            "watch-out",
            "record-out",
            "rules",
        ],
        &["json", "score-watch", "record", "churn"],
        0,
    );
    let kv = ARGS.parse(args)?;
    let defaults = prs_core::ChaosConfig::default();
    let cfg = prs_core::ChaosConfig {
        trials: kv.parsed("trials", defaults.trials)?,
        seed: kv.parsed("seed", defaults.seed)?,
        engine: match kv.get("engine") {
            Some(v) => v
                .parse()
                .map_err(|e| Usage(format!("bad value for --engine: {e}")))?,
            None => defaults.engine,
        },
    };
    let (json, score_watch) = (kv.flag("json"), kv.flag("score-watch"));
    let (record, churn) = (kv.flag("record"), kv.flag("churn"));
    let conflict = if !score_watch && (kv.get("rules").is_some() || kv.get("watch-out").is_some()) {
        Some("--rules / --watch-out require --score-watch")
    } else if !record && kv.get("record-out").is_some() {
        Some("--record-out requires --record")
    } else if record && !score_watch {
        Some("--record requires --score-watch (captures are incident-triggered)")
    } else if churn && (score_watch || record) {
        Some(
            "--churn runs the elastic-membership grid and cannot combine with \
             --score-watch / --record",
        )
    } else {
        None
    };
    if let Some(msg) = conflict {
        return Err(Usage(msg.to_string()));
    }
    let default_out = if churn {
        "churn_report.json"
    } else {
        "chaos_report.json"
    };
    let out_path = kv.get("out").map_or(default_out, String::as_str);
    let watch_out = kv
        .get("watch-out")
        .map_or("watch_score.json", String::as_str);
    let record_out = record.then(|| kv.get("record-out").map_or("chaos_records", String::as_str));
    let verdict = |passed: bool| match passed {
        true => Ok(()),
        false => Err(Failed(
            "chaos invariants violated or watch floors missed".into(),
        )),
    };
    if churn {
        let report = prs_core::run_chaos_churn(&cfg);
        let doc = report.to_json();
        write_json(out_path, &doc)?;
        if json {
            say!("{}", serde_json::to_string_pretty(&doc).unwrap());
        } else {
            say!(
                "churn: {} trials (seed {}) — {} scale-out, {} drain, {} evict, {} with crashes, \
                 {} deadline handoff(s)",
                report.trials.len(),
                report.seed,
                report.scale_out_trials(),
                report.drain_trials(),
                report.evict_trials(),
                report.crash_trials(),
                report.handoffs_total()
            );
            for t in report.trials.iter().filter(|t| !t.passed()) {
                say!(
                    "FAIL trial {}: identical={} flows={} ledger={} size={} clock={}",
                    t.index,
                    t.result_identical,
                    t.flow_conserved,
                    t.ledger_reconciled,
                    t.size_conserved,
                    t.clock_monotone
                );
            }
            say!(
                "{} — report written to {out_path}",
                if report.all_passed() { "all invariants hold" } else { "INVARIANT VIOLATIONS" }
            );
        }
        return verdict(report.all_passed());
    }
    let rules = watch_rules(kv.get("rules"))?;
    let (report, score, recordings) = if let Some(dir) = record_out {
        let (report, score, recordings) =
            prs_core::run_chaos_recorded(&cfg, &rules, obs::RecorderConfig::enabled());
        write_chaos_recordings(dir, &recordings)?;
        (report, Some(score), recordings)
    } else if score_watch {
        let (report, score) = prs_core::run_chaos_scored(&cfg, &rules);
        (report, Some(score), Vec::new())
    } else {
        (prs_core::run_chaos(&cfg), None, Vec::new())
    };
    let doc = report.to_json();
    write_json(out_path, &doc)?;
    if json {
        say!("{}", serde_json::to_string_pretty(&doc).unwrap());
    } else {
        let (launched, won, wasted) = report.speculation_totals();
        say!(
            "chaos: {} trials (seed {}) — {} worker-crash, {} master-crash",
            report.trials.len(),
            report.seed,
            report.worker_crash_trials(),
            report.master_crash_trials()
        );
        say!(
            "speculation: {launched} launched = {won} won + {wasted} wasted ({})",
            if report.speculation_reconciles() { "reconciles" } else { "MISMATCH" }
        );
        for t in report.trials.iter().filter(|t| !t.passed()) {
            say!(
                "FAIL trial {}: identical={} flows={} spec={} counters={} clock={}",
                t.index,
                t.result_identical,
                t.flow_conserved,
                t.speculation_reconciled,
                t.counters_consistent,
                t.clock_monotone
            );
        }
        say!(
            "{} — report written to {out_path}",
            if report.all_passed() { "all invariants hold" } else { "INVARIANT VIOLATIONS" }
        );
    }
    let mut passed = report.all_passed();
    if let Some(score) = &score {
        write(watch_out, score.to_json())?;
        if !json {
            say!(
                "\nwatch: {} trial(s) scored, {} fault-free alert(s)",
                score.trials,
                score.fault_free_alerts
            );
            say!(
                "  {:<14} {:>8} {:>8} {:>9} {:>7} {:>12}",
                "kind", "injected", "detected", "precision", "recall", "median_ttd_s"
            );
            for (kind, k) in &score.kinds {
                say!(
                    "  {:<14} {:>8} {:>8} {:>9.3} {:>7.3} {:>12}",
                    kind.as_str(),
                    k.injected,
                    k.detected,
                    k.precision(),
                    k.recall(),
                    k.median_ttd()
                        .map(|t| format!("{t:.6}"))
                        .unwrap_or_else(|| "-".to_string())
                );
            }
            say!(
                "{} (precision floor {}, recall floor {}) — score written to {watch_out}",
                if score.meets_floors() { "floors met" } else { "FLOORS MISSED" },
                score.precision_floor,
                score.recall_floor
            );
        }
        passed &= score.meets_floors();
    }
    if let Some(dir) = record_out {
        let captures: usize = recordings.iter().map(|r| r.captures.len()).sum();
        if !json {
            say!(
                "recorder: {} trial(s) recorded — {} capture(s) + postmortems written to {dir}/",
                recordings.len(),
                captures
            );
        }
    }
    verdict(passed)
}

/// Writes each recorded chaos trial's captures and assembled postmortem
/// into `<dir>/trial-<index>/`.
fn write_chaos_recordings(dir: &str, recordings: &[prs_core::TrialRecording]) -> Cmd {
    let root = std::path::Path::new(dir);
    for rec in recordings {
        let tdir = root.join(format!("trial-{}", rec.index));
        std::fs::create_dir_all(&tdir)
            .map_err(|e| Failed(format!("creating {}: {e}", tdir.display())))?;
        for c in &rec.captures {
            write(tdir.join(c.file_name()), c.to_jsonl())?;
        }
        // Echo the incident rows so `prs postmortem <trial dir>` can
        // re-assemble the identical document from the artifacts alone.
        let incidents: Vec<serde_json::Value> = rec
            .postmortem
            .as_object()
            .and_then(|o| o.get("incidents"))
            .and_then(serde_json::Value::as_array)
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|e| e.as_object().and_then(|o| o.get("incident")).cloned())
                    .collect()
            })
            .unwrap_or_default();
        if !incidents.is_empty() {
            let mut text = String::new();
            for inc in &incidents {
                text.push_str(&inc.to_json_string());
                text.push('\n');
            }
            write(tdir.join("incidents.jsonl"), text)?;
        }
        write(tdir.join("decisions.jsonl"), &rec.decisions_jsonl)?;
        write(tdir.join("stacks.jsonl"), &rec.stacks_jsonl)?;
        write_json(tdir.join("postmortem.json"), &rec.postmortem)?;
    }
    Ok(())
}

/// `prs postmortem <dir>`: join the flight-recorder captures of a
/// recorded dir with its incidents, decision audit and stack frames into
/// one `postmortem.json`, and print the human-readable incident report.
/// Exits 2 on usage errors, 1 when the dir is missing or holds no
/// `capture-*.jsonl` files.
fn cmd_postmortem(args: &[String]) -> Cmd {
    let dir = bundle_dir(
        args,
        "missing <dir> (a --record'ed --obs bundle or chaos trial dir)",
    )?;
    let root = std::path::Path::new(&dir);
    if !root.is_dir() {
        return Err(Failed(format!("{dir} is not a directory")));
    }
    // Every capture file in name order: capture ids are per-incident, so
    // the lexicographic tie-break keeps multi-digit ids deterministic.
    let mut capture_paths: Vec<std::path::PathBuf> = std::fs::read_dir(root)
        .map_err(|e| Failed(format!("reading {dir}: {e}")))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("capture-") && n.ends_with(".jsonl"))
        })
        .collect();
    capture_paths.sort();
    if capture_paths.is_empty() {
        return Err(Failed(format!(
            "no capture files (capture-*.jsonl) in {dir} — was the run recorded with --record?"
        )));
    }
    let mut docs = Vec::new();
    for path in &capture_paths {
        let doc = insight::parse_capture_jsonl(&read(path)?)
            .map_err(|e| Failed(format!("{}: {e}", path.display())))?;
        docs.push(doc);
    }
    // The companion artifacts are optional: a chaos trial dir carries only
    // captures, an --obs bundle carries all three.
    let incidents: Vec<serde_json::Value> = std::fs::read_to_string(root.join("incidents.jsonl"))
        .map(|text| {
            text.lines()
                .filter_map(|l| serde_json::from_str(l).ok())
                .filter(|v: &serde_json::Value| {
                    v.as_object().map(|o| !o.contains_key("schema")).unwrap_or(false)
                })
                .collect()
        })
        .unwrap_or_default();
    let incidents = if incidents.is_empty() {
        // No incident log — fall back to one skeleton incident per capture
        // so the captures still anchor postmortem entries.
        docs.iter()
            .map(|d| {
                serde_json::from_str(&format!(
                    "{{\"id\":{},\"capture\":{:?},\"t_start\":{},\"t_end\":{}}}",
                    d.incident, d.name, d.t0, d.t1
                ))
                .unwrap()
            })
            .collect()
    } else {
        incidents
    };
    let decisions = decisions_if_present(&root.join("decisions.jsonl"))?;
    let frames = std::fs::read_to_string(root.join("stacks.jsonl"))
        .ok()
        .and_then(|t| obs::FrameSet::parse_stacks_jsonl(&t).ok())
        .unwrap_or_default();
    let pm = insight::postmortem::assemble(&docs, &incidents, &decisions, frames.frames());
    let out = root.join("postmortem.json");
    write_json(&out, &pm)?;
    say!("{}", insight::postmortem::summary(&pm).trim_end());
    eprintln!("postmortem written to {}", out.display());
    Ok(())
}

/// Resolves node hardware: a `prs calibrate` TOML when `--profile-file`
/// is given, a named preset otherwise.
fn load_profile(
    file: Option<&String>,
    name: &str,
) -> Result<roofline::profiles::DeviceProfile, String> {
    match file {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            insight::profile_toml::parse_device_profile(&text).map_err(|e| format!("{path}: {e}"))
        }
        None => parse_profile(name),
    }
}

fn cmd_run(args: &[String]) -> Cmd {
    let opts = run_options(args)?;
    let spec = cluster(&opts)?;
    // A churn plan is loaded up front so a bad plan file fails like any
    // other argument error, before the cluster spins up.
    let churn = match &opts.membership {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Some(prs_core::MembershipPlan::from_toml(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };

    // With `--record` the flight recorder rides along: shadow mode when an
    // `--obs` bundle is requested (the export needs the full bus), bounded
    // mode otherwise so the run stays O(budget) in resident events.
    let rec_cfg = opts.config.recorder;
    let obs = if opts.obs_out.is_some() {
        if rec_cfg.is_enabled() {
            Obs::recording_with_recorder(rec_cfg, false)
        } else {
            Obs::recording()
        }
    } else if rec_cfg.is_enabled() {
        Obs::recording_with_recorder(rec_cfg, true)
    } else {
        Obs::disabled()
    };
    let (result, label, extra) =
        dispatch(&opts, &spec, churn.as_ref(), obs.clone()).map_err(Failed)?;

    if opts.json {
        let doc = serde_json::json!({
            "app": label,
            "nodes": opts.nodes,
            "points": opts.points,
            "iterations": result.iterations.len(),
            "setup_seconds": result.setup_seconds,
            "compute_seconds": result.compute_seconds,
            "seconds_per_iteration": result.seconds_per_iteration(),
            "gflops_per_node": result.gflops_per_node(),
            "cpu_fraction": result.cpu_fraction,
            "cpu_map_tasks": result.cpu_map_tasks,
            "gpu_map_tasks": result.gpu_map_tasks,
            "sim_events": result.sim_events,
            "extra": extra,
        });
        say!("{}", serde_json::to_string_pretty(&doc).unwrap());
    } else {
        say!("{label} on {} node(s):", opts.nodes);
        if let Some(p) = result.cpu_fraction {
            say!("  CPU fraction (Eq 8) : {:.1}%", p * 100.0);
        }
        say!("  iterations          : {}", result.iterations.len());
        say!("  setup               : {:.3} ms", result.setup_seconds * 1e3);
        say!(
            "  compute             : {:.3} ms ({:.3} ms/iteration)",
            result.compute_seconds * 1e3,
            result.seconds_per_iteration() * 1e3
        );
        say!("  Gflop/s per node    : {:.2}", result.gflops_per_node());
        say!(
            "  map tasks CPU/GPU   : {} / {}",
            result.cpu_map_tasks, result.gpu_map_tasks
        );
        if !extra.is_empty() {
            say!("  {extra}");
        }
        if opts.timeline {
            say!("\n{}", render_ascii(&result.timeline, 100));
        }
    }
    if let Some(path) = &opts.trace_out {
        write(path, to_chrome_trace(&result.timeline))?;
        eprintln!("trace written to {path} (open in chrome://tracing or Perfetto)");
    }
    if let Some(dir) = &opts.obs_out {
        write_obs_bundle(dir, &obs, &result.timeline)?;
        eprintln!(
            "observability bundle written to {dir}/ (events.jsonl, metrics.prom, \
             decisions.jsonl, rollup.jsonl, alerts.jsonl, incidents.jsonl, trace.json, \
             stacks.jsonl, profile.folded, profile.json{})",
            if rec_cfg.is_enabled() {
                ", capture-*.jsonl, postmortem.json"
            } else {
                ""
            }
        );
    } else if rec_cfg.is_enabled() {
        let s = obs.recorder.summary();
        eprintln!(
            "flight recorder: {} event(s) retained (peak {}), {} folded into {} rollup bin(s), \
             ~{} B resident",
            s.retained, s.peak_retained, s.folded, s.fold_bins, s.bytes
        );
    }
    Ok(())
}

/// Converts paired message flows into Chrome-trace arrows.
fn flow_arrows(flows: &[insight::Flow]) -> Vec<FlowArrow> {
    flows
        .iter()
        .map(|f| FlowArrow {
            id: f.id,
            name: format!("msg {}B", f.bytes as u64),
            src_lane: f.src_lane.clone(),
            send_t: f.send_t,
            dst_lane: f.dst_lane.clone(),
            recv_t: f.recv_t,
        })
        .collect()
}

/// Writes the deterministic export artifacts of an observed run:
/// `events.jsonl`, `metrics.prom` (including the rollup gauge families),
/// `decisions.jsonl`, `rollup.jsonl`, and a `trace.json` whose lanes are
/// linked by flow arrows for every paired cross-node message.
fn write_obs_bundle(dir: &str, obs: &Obs, timeline: &[device::Interval]) -> Cmd {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| Failed(format!("creating {}: {e}", dir.display())))?;
    let write = |name: &str, content: String| write(dir.join(name), content);
    let decisions = obs.audit.records();
    // Everything derived from the event stream reads the bus's own
    // records, in the analyzer's canonical order — no snapshot.
    let (flows, horizon, mut roll, mut watched) = obs.bus.with_events(|events| {
        let events = insight::canonical_view(events);
        let horizon = events.iter().map(|e| e.end()).fold(0.0, f64::max);
        (
            insight::pair_flows(&events),
            horizon,
            rollup(&events, &decisions, &RollupConfig::auto(horizon.max(1e-9))),
            watch::watch(&events, &decisions, &watch::WatchConfig::default()),
        )
    });
    roll.register_metrics(&obs.metrics);
    watched.register_metrics(&obs.metrics);
    let set = obs::FrameSet::from_stack(&obs.stack);
    if obs.recorder.is_enabled() {
        // Freeze + capture the window around every incident the watchdog
        // opened, link each incident to its capture, and assemble the
        // machine-readable postmortem alongside the raw captures.
        let captures = watch::capture_incidents(&mut watched, &obs.recorder);
        for c in &captures {
            write(&c.file_name(), c.to_jsonl())?;
        }
        let docs: Vec<insight::CaptureDoc> =
            captures.iter().map(insight::postmortem::capture_doc).collect();
        let incident_values: Vec<serde_json::Value> =
            watched.incidents.iter().map(|i| i.to_value()).collect();
        let pm = insight::postmortem::assemble(&docs, &incident_values, &decisions, set.frames());
        write(
            "postmortem.json",
            serde_json::to_string_pretty(&pm).unwrap() + "\n",
        )?;
        roll.recorder = Some(obs.recorder.summary());
        obs.recorder.register_metrics(&obs.metrics);
    }
    write("events.jsonl", obs.bus.to_jsonl())?;
    write("metrics.prom", obs.metrics.to_prometheus())?;
    write("decisions.jsonl", obs.audit.to_jsonl())?;
    write("rollup.jsonl", roll.to_jsonl())?;
    write("alerts.jsonl", watched.alerts_jsonl())?;
    write("incidents.jsonl", watched.incidents_jsonl())?;
    write("trace.json", to_chrome_trace_with_flows(timeline, &flow_arrows(&flows)))?;
    let prof = obs::profile(&set, horizon, obs::profile::DEFAULT_PERIOD_S);
    write("stacks.jsonl", set.to_stacks_jsonl())?;
    write("profile.folded", prof.to_folded())?;
    write("profile.json", prof.to_json())?;
    Ok(())
}

type RunOutcome = Result<(prs_core::JobMetrics, String, String), String>;

/// Builds the requested app, runs it (with the given observability
/// bundle attached), and summarizes app-specific results. C-means goes
/// through the epoch driver when it is given a membership plan, the
/// autoscaler or a checkpoint interval; a fresh in-memory store carries
/// the checkpoints across epochs.
fn dispatch(
    opts: &RunOptions,
    spec: &ClusterSpec,
    churn: Option<&prs_core::MembershipPlan>,
    obs: Obs,
) -> RunOutcome {
    let seed = opts.seed;
    let n = opts.points;
    let d = opts.dims;
    let k = opts.clusters.max(1);
    let err = |e: prs_core::JobError| e.to_string();

    fn metrics<O>(r: JobResult<O>) -> prs_core::JobMetrics {
        r.metrics
    }

    match opts.app {
        AppKind::Cmeans => {
            let pts = Arc::new(clustering_workload(n, d, k, seed).points);
            let app = Arc::new(CMeans::new(pts, k, 2.0, 1e-3, seed));
            let final_jm = || app.objective_history().last().copied().unwrap_or(0.0);
            if churn.is_none() && !opts.autoscale && opts.config.checkpoint_interval_iters == 0 {
                let r = run_iterative_observed(spec, app.clone(), opts.config, obs).map_err(err)?;
                return Ok((
                    metrics(r),
                    "C-means".into(),
                    format!("final J_m = {:.4e}", final_jm()),
                ));
            }
            let epochs = prs_core::EpochOptions {
                membership: churn.cloned().unwrap_or_default(),
                autoscale: opts.autoscale.then(prs_core::AutoscalePolicy::default),
                obs,
                ..Default::default()
            };
            let out = prs_core::run_epochs(spec, app.clone(), opts.config, epochs).map_err(err)?;
            let m = &out.membership;
            let extra = format!(
                "elastic: {} epoch(s), {} -> {} node(s), joins={} (retries={}) drains={} \
                 evicts={} handoffs={} grow={} shrink={}; final J_m = {:.4e}",
                out.attempts.len(),
                spec.len(),
                out.cluster_sizes.last().map_or(spec.len(), |&(_, n)| n),
                m.joins,
                m.join_retries,
                m.drains,
                m.evictions,
                m.handoffs,
                m.grow_decisions,
                m.shrink_decisions,
                final_jm(),
            );
            Ok((out.metrics, "C-means (elastic)".into(), extra))
        }
        AppKind::Kmeans => {
            let pts = Arc::new(clustering_workload(n, d, k, seed).points);
            let app = Arc::new(KMeans::new(pts, k, 1e-3, seed));
            let r = run_iterative_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let sse = app.sse_history().last().copied().unwrap_or(0.0);
            Ok((metrics(r), "K-means".into(), format!("final SSE = {sse:.4e}")))
        }
        AppKind::Gmm => {
            let pts = Arc::new(clustering_workload(n, d, k, seed).points);
            let app = Arc::new(Gmm::new(pts, k, 1e-6, seed));
            let r = run_iterative_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let ll = app.log_likelihood_history().last().copied().unwrap_or(0.0);
            Ok((metrics(r), "GMM".into(), format!("final logL = {ll:.4e}")))
        }
        AppKind::Da => {
            let pts = Arc::new(clustering_workload(n, d, k, seed).points);
            let app = Arc::new(DaKmeans::new(pts, k, 0.85, 1e-3));
            let r = run_iterative_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            Ok((
                metrics(r),
                "DA clustering".into(),
                format!("final T = {:.4e}", app.temperature()),
            ))
        }
        AppKind::Gemv => {
            let mut rng = SplitMix64::new(seed);
            let a = Arc::new(MatrixF32::from_fn(n, d, |_, _| rng.next_f32() - 0.5));
            let x: Arc<Vec<f32>> = Arc::new((0..d).map(|_| rng.next_f32()).collect());
            let app = Arc::new(Gemv::new(a, x));
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let y = app.assemble(&r.outputs);
            Ok((
                metrics(r),
                "GEMV".into(),
                format!("|y| = {} elements", y.len()),
            ))
        }
        AppKind::Spmv => {
            let m = Arc::new(CsrMatrix::synthetic(n, d.max(1), 8, seed));
            let mut rng = SplitMix64::new(seed ^ 1);
            let x: Arc<Vec<f32>> = Arc::new((0..d.max(1)).map(|_| rng.next_f32()).collect());
            let expect = m.spmv_ref(&x);
            let app = Arc::new(Spmv::new(m, x));
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let y = app.assemble(&r.outputs);
            let ok = y
                .iter()
                .zip(&expect)
                .all(|(a, b)| (a - b).abs() <= 1e-4 * b.abs().max(1.0));
            Ok((
                metrics(r),
                "SpMV".into(),
                format!("reference check: {}", if ok { "ok" } else { "FAILED" }),
            ))
        }
        AppKind::Dgemm => {
            let mut rng = SplitMix64::new(seed);
            let a = Arc::new(MatrixF32::from_fn(n, d, |_, _| rng.next_f32() - 0.5));
            let b = Arc::new(MatrixF32::from_fn(d, d, |_, _| rng.next_f32() - 0.5));
            let app = Arc::new(Dgemm::new(a, b));
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            Ok((
                metrics(r),
                "DGEMM".into(),
                format!("C is {n} x {d}"),
            ))
        }
        AppKind::Wordcount => {
            let app = Arc::new(WordCount::synthetic(n, k as u32 * WORDS_PER_CLUSTER, seed));
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            Ok((
                metrics(r),
                "WordCount".into(),
                format!("vocab = {}", app.vocab()),
            ))
        }
        AppKind::Fft => {
            let len = d.next_power_of_two().max(64);
            let app = Arc::new(BatchFft::synthetic(n.max(1), len, seed));
            let expected = len as f64 * app.total_time_energy();
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let spectral: f64 = r.outputs.iter().map(|(_, e)| e).sum();
            let ok = (spectral - expected).abs() < 1e-6 * expected.abs().max(1.0);
            Ok((
                metrics(r),
                "BatchFFT".into(),
                format!("Parseval check: {}", if ok { "ok" } else { "FAILED" }),
            ))
        }
    }
}
