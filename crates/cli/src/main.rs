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

use device::{render_ascii, to_chrome_trace, write_chrome_trace_with_flows, FlowArrow};
use obs::rollup::{rollup, RollupConfig};
use obs::{kinds, AuditLog, EventView, MetricsRegistry, Obs};
use prs_apps::catalog::{self, DriverClass, Drive, Ran};
use prs_cli::CliError::{self, Failed, Usage};
use prs_cli::{parse_profile, parse_residency, parse_run, ArgSpec, Args, RunOptions};
use prs_core::{ChaosWatch, ClusterSpec};
use roofline::model::DataResidency;
use roofline::schedule::{split_multi_gpu, Workload};
use std::path::{Path, PathBuf};

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

/// Streams a file through a `BufWriter`: `render` writes it piece by
/// piece, so no whole-file buffer is built.
fn write_with(
    path: impl AsRef<Path>,
    render: impl FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
) -> Cmd {
    let path = path.as_ref();
    let failed = |e: std::io::Error| Failed(format!("writing {}: {e}", path.display()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(failed)?);
    render(&mut out).and_then(|()| std::io::Write::flush(&mut out)).map_err(failed)
}

/// Writes a JSON document, pretty-printed with a final newline.
fn write_json(path: impl AsRef<Path>, doc: &serde_json::Value) -> Cmd {
    write(path, serde_json::to_string_pretty(doc).unwrap() + "\n")
}

/// An `--obs` bundle (or chaos trial dir) as a command names it: the
/// directory, or any file in it. Every artifact is read from the
/// directory by its own file name, and derived artifacts are written
/// there.
struct Bundle(PathBuf);

impl Bundle {
    fn new(arg: &str) -> Self {
        let p = Path::new(arg);
        let dir = match p.parent() {
            Some(dir) if p.is_file() && dir.as_os_str().is_empty() => Path::new("."),
            Some(dir) if p.is_file() => dir,
            _ => p,
        };
        Bundle(dir.to_path_buf())
    }

    /// The path of the artifact called `name`.
    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Reads and parses the artifact `name`; a missing or damaged file is
    /// an error naming it.
    fn read<T, E: std::fmt::Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, CliError> {
        let path = self.file(name);
        parse(&read(&path)?).map_err(|e| Failed(format!("{}: {e}", path.display())))
    }

    /// [`Self::read`] for an artifact a command can do without: a missing
    /// file reads as empty, a damaged one is still an error.
    fn read_if_present<T: Default, E: std::fmt::Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, CliError> {
        match self.file(name).try_exists() {
            Ok(false) => Ok(T::default()),
            _ => self.read(name, parse),
        }
    }

    /// The events of `events.jsonl`, canonically ordered; an empty file
    /// is an error too.
    fn events(&self) -> Result<Vec<insight::TraceEvent>, CliError> {
        let events = self.read("events.jsonl", insight::parse_events_jsonl)?;
        if events.is_empty() {
            let file = self.file("events.jsonl");
            return Err(Failed(format!("no events found in {}", file.display())));
        }
        Ok(events)
    }

    /// `decisions.jsonl`'s scheduling decisions; a missing file reads as
    /// none.
    fn decisions(&self) -> Result<Vec<obs::DecisionRecord>, CliError> {
        self.read_if_present("decisions.jsonl", AuditLog::read_jsonl)
    }

    /// `incidents.jsonl`'s incident rows; a missing file reads as none.
    fn incidents(&self) -> Result<Vec<serde_json::Value>, CliError> {
        self.read_if_present("incidents.jsonl", watch::WatchOutput::read_incidents_jsonl)
    }
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
  --obs <dir>                 write the observability bundle into <dir>:
                              events.jsonl, metrics.prom, decisions.jsonl,
                              rollup.jsonl, alerts.jsonl, incidents.jsonl,
                              a flow-linked trace.json, stacks.jsonl,
                              profile.folded and profile.json
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
                              events in virtual time; the app must be
                              checkpointable: {elastic};
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
                              error from a bundle's decisions.jsonl; the
                              path is the --obs dir or any file in it
                              (also accepts --profile-file <toml>)

CALIBRATE OPTIONS:
  --from-trace <path>         fit from a bundle's events.jsonl; the path
                              is the --obs dir or any file in it (required)
  --out <file> / -o <file>    write the fitted profile TOML here
                              (default: print to stdout)
  --profile <delta|bigred2>   seed profile for the EWMA fit (delta)
  --alpha <a>                 EWMA smoothing factor in [0,1] ({alpha})",
        apps = catalog::names(None).join("|"),
        elastic = catalog::names(Some(DriverClass::Checkpointable)).join(", "),
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
        prs_core::check_config(&spec, &opts.config)
            .map_err(|e| Usage(format!("at p = {p}: {e}")))?;
        let m = dispatch(&opts, &spec, None, Obs::disabled())
            .map_err(|e| Failed(format!("at p = {p}: {e}")))?
            .metrics;
        let t = m.compute_seconds;
        say!("  p = {:>3.0}%  ->  {:10.3} ms", p * 100.0, t * 1e3);
        if t < best.0 {
            best = (t, p);
        }
    }
    // Analytic prediction for the same app: rebuild once in static mode.
    opts.config.scheduling = prs_core::SchedulingMode::Static { p_override: None };
    let Ran { metrics: m, label, .. } =
        dispatch(&opts, &spec, None, Obs::disabled()).map_err(Failed)?;
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

/// `prs advise --from-trace`: replay a bundle's audit log and report the
/// roofline model's predicted-vs-observed error per decision.
fn advise_from_trace(path: &str) -> Cmd {
    let bundle = Bundle::new(path);
    let recs = bundle.read("decisions.jsonl", AuditLog::read_jsonl)?;
    let file = bundle.file("decisions.jsonl");
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
/// The events are read strictly, once: a damaged file is an error naming
/// it, never a summary of part of a run.
fn cmd_trace(args: &[String]) -> Cmd {
    const ARGS: ArgSpec = ArgSpec::new(&["dir"], &["flows"], 1);
    let kv = ARGS.parse(args)?;
    let bundle = Bundle::new(&kv.dir(MISSING_BUNDLE)?);
    let events_path = bundle.file("events.jsonl");
    let events = bundle.read("events.jsonl", |text| {
        let mut events = Vec::new();
        obs::jsonl::read_events(text, |e| events.push(e)).map(|()| events)
    })?;
    let mut recs = bundle.decisions()?;
    if events.is_empty() {
        return Err(Failed(format!(
            "no events found in {} — was the run recorded with --obs?",
            events_path.display()
        )));
    }
    let mut by_kind: std::collections::BTreeMap<&str, (u64, f64)> =
        std::collections::BTreeMap::new();
    let mut t_max = 0.0f64;
    let mut recovery = Vec::new();
    for e in &events {
        let dur = e.dur.unwrap_or(0.0);
        t_max = t_max.max(e.t + dur);
        let entry = by_kind.entry(&e.kind).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += dur;
        if kinds::FAULT.contains(&&*e.kind) {
            recovery.push(e);
        }
    }
    say!(
        "{} event(s) over {t_max:.6} virtual seconds ({})",
        events.len(),
        events_path.display()
    );
    say!("  kind                 count   busy_s");
    for (kind, (count, busy)) in &by_kind {
        say!("  {kind:<20} {count:>5}   {busy:.6}");
    }
    if recovery.is_empty() {
        say!("\nno recovery events: fault-free run");
    } else {
        say!("\n{} recovery event(s):", recovery.len());
        for e in &recovery {
            say!("  t={:<12.6} {:<16} on {}", e.t, &*e.kind, &*e.lane);
        }
    }
    if kv.flag("flows") {
        let flows = insight::pair_flows(&insight::canonical_view(&events));
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
    let path = Bundle::new(&bundle_dir(args, MISSING_BUNDLE)?).file("metrics.prom");
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

/// `prs analyze`: critical-path + blame analysis of an `--obs` bundle.
/// Writes deterministic `report.json` and `critical_path.json` next to
/// the events and prints the per-iteration summary table.
fn cmd_analyze(args: &[String]) -> Cmd {
    let bundle = Bundle::new(&bundle_dir(args, MISSING_BUNDLE)?);
    let events = bundle.events()?;
    let analysis = insight::analyze(&events);
    if analysis.iterations.is_empty() {
        return Err(Failed(format!(
            "no iteration spans found in {}: was the run recorded with --obs?",
            bundle.0.display()
        )));
    }
    let out_dir = &bundle.0;
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
    let bundle = Bundle::new(&kv.dir(MISSING_BUNDLE)?);
    let cfg = watch_rules(kv.get("rules"))?;
    let events = bundle.events()?;
    if let Some(path) = kv.get("rules") {
        let horizon = events.iter().map(|e| e.end()).fold(0.0, f64::max);
        cfg.check_windows(horizon).map_err(|e| Usage(format!("{path}: {e}")))?;
    }
    let decisions = bundle.decisions()?;
    let out_dir = &bundle.0;
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
            say!(
                "  #{} [{}] t={:.6}..{:.6} detect={:.6} {} on {} ({} alert(s), {})",
                inc.id,
                inc.severity.as_str(),
                inc.t_start,
                inc.t_end,
                inc.t_detect,
                inc.kind.as_str(),
                inc.nodes_label(),
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
    let events = Bundle::new(trace).events()?;
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
    if let Some(w) = window.filter(|w| !(w.is_finite() && *w > 0.0)) {
        return Err(Usage(format!("--window {w}: must be a finite number greater than 0")));
    }
    if let Some(t) = snapshot.filter(|t| !t.is_finite()) {
        return Err(Usage(format!("--snapshot {t}: must be a finite number")));
    }
    let bundle = Bundle::new(&dir);
    let events = bundle.events()?;
    let decisions = bundle.decisions()?;
    // Incident→capture links from a `--record`'ed bundle, marking
    // captured incidents in the alert lane.
    let captures: std::collections::BTreeMap<u64, String> = bundle
        .incidents()?
        .iter()
        .filter_map(|v| {
            let o = v.as_object()?;
            Some((
                o.get("id")?.as_u64()?,
                o.get("capture")?.as_str()?.to_string(),
            ))
        })
        .collect();
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

/// Loads the profiler's frame set from a bundle's `stacks.jsonl`, plus
/// the bundle's event horizon in virtual seconds.
fn load_frame_set(bundle: &Bundle) -> Result<(obs::FrameSet, f64), CliError> {
    let set = bundle.read_if_present("stacks.jsonl", obs::FrameSet::parse_stacks_jsonl)?;
    if set.is_empty() {
        return Err(Failed(format!(
            "no stack frames found in {} — was the run recorded with --obs?",
            bundle.0.display()
        )));
    }
    // The sampling horizon comes from the full event stream, so trailing
    // span-less time is counted: a pass that keeps only `t`/`dur`. A
    // bundle without events samples to its last frame; one whose events
    // are damaged is refused.
    let horizon = bundle
        .read_if_present("events.jsonl", |text| obs::jsonl::events_horizon(text).map(Some))?
        .unwrap_or_else(|| set.horizon());
    Ok((set, horizon))
}

/// The most lane-instants `prs profile` samples (≈ 6 ns each, so about
/// 6 s).
const MAX_LANE_INSTANTS: f64 = 1e9;

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
    if !(period.is_finite() && period > 0.0) {
        return Err(Usage(format!("--period {period}: must be a finite number greater than 0")));
    }
    let (set, horizon) = load_frame_set(&Bundle::new(&dir))?;
    let work = obs::profile::lane_instants(&set, horizon, period);
    if work > MAX_LANE_INSTANTS {
        return Err(Usage(format!(
            "--period {period:e}: {work:.3e} lane-instants (instants × lanes), above the limit of \
             {MAX_LANE_INSTANTS:.0e}"
        )));
    }
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
    let cand = Bundle::new(cand_dir);
    let d = insight::diff_events(&Bundle::new(base_dir).events()?, &cand.events()?);
    let path = cand.file("diff.json");
    write(&path, d.to_json())?;
    say!("{}", d.table().trim_end());
    eprintln!("diff written to {}", path.display());
    Ok(())
}

/// The most trials one `prs chaos` grid runs.
const MAX_TRIALS: usize = 1 << 20;

/// `prs chaos [--trials <n>] [--seed <n>] [--out <file>] [--json]`:
/// sample seeded fault plans across a cluster/workload grid, run each
/// through the epoch driver, and assert the recovery invariants
/// (result bit-equality with the fault-free run, flow conservation,
/// speculation reconciliation, counter consistency, a monotone virtual
/// clock). Writes a deterministic `chaos_report.json`; exits 1 when any
/// trial violates an invariant.
fn cmd_chaos(args: &[String]) -> Cmd {
    const ARGS: ArgSpec = ArgSpec::new(
        &["trials", "seed", "engine", "out", "watch-out", "record-out", "rules"],
        &["json", "score-watch", "record", "churn"],
        0,
    );
    let kv = ARGS.parse(args)?;
    let cfg = chaos_config(&kv)?;
    chaos_flag_conflicts(&kv)?;
    let (json, score_watch, record) = (kv.flag("json"), kv.flag("score-watch"), kv.flag("record"));
    let verdict = |passed: bool| match passed {
        true => Ok(()),
        false => Err(Failed(
            "chaos invariants violated or watch floors missed".into(),
        )),
    };
    if kv.flag("churn") {
        let out_path = kv.get("out").map_or("churn_report.json", String::as_str);
        let report = prs_core::run_chaos_churn(&cfg);
        write_report(out_path, &report.to_json(), json)?;
        if !json {
            print_churn_report(&report, out_path);
        }
        return verdict(report.all_passed());
    }
    let out_path = kv.get("out").map_or("chaos_report.json", String::as_str);
    let rules = watch_rules(kv.get("rules"))?;
    let watch = match (record, score_watch) {
        (true, _) => ChaosWatch::Recorded(&rules),
        (false, true) => ChaosWatch::Scored(&rules),
        (false, false) => ChaosWatch::Off,
    };
    let (report, score, recordings) = prs_core::run_chaos(&cfg, watch);
    let record_out = record.then(|| kv.get("record-out").map_or("chaos_records", String::as_str));
    if let Some(dir) = record_out {
        write_chaos_recordings(dir, &recordings)?;
    }
    write_report(out_path, &report.to_json(), json)?;
    if !json {
        print_chaos_report(&report, out_path);
    }
    let mut passed = report.all_passed();
    if let Some(score) = &score {
        let watch_out = kv.get("watch-out").map_or("watch_score.json", String::as_str);
        write(watch_out, score.to_json())?;
        if !json {
            print_watch_score(score, watch_out);
        }
        passed &= score.meets_floors();
    }
    if let (Some(dir), false) = (record_out, json) {
        let captures: usize = recordings.iter().map(|r| r.captures.len()).sum();
        say!(
            "recorder: {} trial(s) recorded — {} capture(s) + postmortems written to {dir}/",
            recordings.len(),
            captures
        );
    }
    verdict(passed)
}

/// `prs chaos`'s grid: `--trials`, `--seed` and `--engine`. An empty grid
/// (it would pass every invariant and floor vacuously) and one above
/// [`MAX_TRIALS`] are usage errors.
fn chaos_config(kv: &Args) -> Result<prs_core::ChaosConfig, CliError> {
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
    if cfg.trials == 0 {
        return Err(Usage("--trials must be at least 1".to_string()));
    }
    if cfg.trials > MAX_TRIALS {
        return Err(Usage(format!(
            "--trials {} is above the limit of {MAX_TRIALS}",
            cfg.trials
        )));
    }
    Ok(cfg)
}

/// The `prs chaos` flags that need another one or exclude each other.
fn chaos_flag_conflicts(kv: &Args) -> Cmd {
    let (score_watch, record) = (kv.flag("score-watch"), kv.flag("record"));
    let conflict = if !score_watch && (kv.get("rules").is_some() || kv.get("watch-out").is_some()) {
        "--rules / --watch-out require --score-watch"
    } else if !record && kv.get("record-out").is_some() {
        "--record-out requires --record"
    } else if record && !score_watch {
        "--record requires --score-watch (captures are incident-triggered)"
    } else if kv.flag("churn") && (score_watch || record) {
        "--churn runs the elastic-membership grid and cannot combine with \
         --score-watch / --record"
    } else {
        return Ok(());
    };
    Err(Usage(conflict.to_string()))
}

/// Writes a grid report, and prints it too under `--json`.
fn write_report(path: &str, doc: &serde_json::Value, json: bool) -> Cmd {
    write_json(path, doc)?;
    if json {
        say!("{}", doc.to_json_string_pretty());
    }
    Ok(())
}

/// The fault grid's human-readable summary: coverage, the speculation
/// ledger, and one line per failed trial.
fn print_chaos_report(report: &prs_core::ChaosReport, out_path: &str) {
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

/// The churn grid's human-readable summary: coverage and one line per
/// failed trial.
fn print_churn_report(report: &prs_core::ChurnReport, out_path: &str) {
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

/// The watchdog's score table: precision, recall and median
/// time-to-detect per fault kind, against the floors.
fn print_watch_score(score: &watch::WatchScore, watch_out: &str) {
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

/// Writes every recorded chaos trial's directory under `dir`
/// (`trial-<index>/`, see `TrialRecording::files`).
fn write_chaos_recordings(dir: &str, recordings: &[prs_core::TrialRecording]) -> Cmd {
    for rec in recordings {
        for (path, text) in rec.files() {
            let path = Path::new(dir).join(path);
            if let Some(tdir) = path.parent() {
                std::fs::create_dir_all(tdir)
                    .map_err(|e| Failed(format!("creating {}: {e}", tdir.display())))?;
            }
            write(path, text)?;
        }
    }
    Ok(())
}

/// `prs postmortem <dir>`: join the flight-recorder captures of a
/// recorded dir with its incidents, decision audit and stack frames into
/// one `postmortem.json`, and print the human-readable incident report.
/// Exits 2 on usage errors, 1 when the dir is missing or holds no
/// `capture-*.jsonl` files.
fn cmd_postmortem(args: &[String]) -> Cmd {
    let bundle = Bundle::new(&bundle_dir(
        args,
        "missing <dir> (a --record'ed --obs bundle or chaos trial dir)",
    )?);
    let (root, dir) = (&bundle.0, bundle.0.display());
    if !root.is_dir() {
        return Err(Failed(format!("{dir} is not a directory")));
    }
    // The companion artifacts are optional: a chaos trial dir carries
    // captures, incidents, decisions and stacks, an --obs bundle all of
    // them and more. A damaged one is refused before anything is
    // assembled.
    let incidents = bundle.incidents()?;
    // Every capture file in name order: capture ids are per-incident, so
    // the lexicographic tie-break keeps multi-digit ids deterministic.
    let mut capture_paths: Vec<PathBuf> = std::fs::read_dir(root)
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
    let incidents = if incidents.is_empty() {
        // No incident log — fall back to one skeleton incident per capture
        // so the captures still anchor postmortem entries.
        docs.iter()
            .map(|d| {
                let mut o = std::collections::BTreeMap::new();
                o.insert("id".to_string(), serde_json::Value::Number(d.incident as f64));
                o.insert("capture".to_string(), serde_json::Value::String(d.name.clone()));
                o.insert("t_start".to_string(), serde_json::Value::Number(d.t0));
                o.insert("t_end".to_string(), serde_json::Value::Number(d.t1));
                serde_json::Value::Object(o)
            })
            .collect()
    } else {
        incidents
    };
    let decisions = bundle.decisions()?;
    let frames = bundle.read_if_present("stacks.jsonl", obs::FrameSet::parse_stacks_jsonl)?;
    let pm = insight::postmortem::assemble(&docs, &incidents, &decisions, &frames);
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
    // A flag the job refuses is a bad argument, like one the parser does.
    prs_core::check_config(&spec, &opts.config).map_err(|e| Usage(e.to_string()))?;
    // A churn plan is loaded up front so a bad plan file fails like any
    // other argument error, before the cluster spins up.
    let churn = match &opts.membership {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Some(prs_core::MembershipPlan::from_toml(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };

    let rec_cfg = opts.config.recorder;
    let obs = opts.obs();
    let Ran { metrics: result, label, summary: extra, .. } =
        dispatch(&opts, &spec, churn.as_ref(), obs.clone()).map_err(Failed)?;

    if opts.json {
        let doc = serde_json::json!({
            "app": label,
            "nodes": opts.nodes,
            "points": opts.shape.points,
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
fn write_obs_bundle(dir: &str, obs: &Obs, timeline: &[simtime::StackFrame]) -> Cmd {
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
        let (captures, pm) =
            watch::capture_postmortem(&mut watched, &obs.recorder, &decisions, &set);
        for c in &captures {
            write(&c.file_name(), c.to_jsonl())?;
        }
        write("postmortem.json", pm.to_json_string_pretty() + "\n")?;
        roll.recorder = Some(obs.recorder.summary());
        obs.recorder.register_metrics(&obs.metrics);
    }
    write_with(dir.join("events.jsonl"), |out| obs.bus.write_jsonl(out))?;
    write("metrics.prom", obs.metrics.to_prometheus())?;
    write("decisions.jsonl", obs.audit.to_jsonl())?;
    write("rollup.jsonl", roll.to_jsonl())?;
    write("alerts.jsonl", watched.alerts_jsonl())?;
    write("incidents.jsonl", watched.incidents_jsonl())?;
    let arrows = flow_arrows(&flows);
    write_with(dir.join("trace.json"), |out| {
        write_chrome_trace_with_flows(timeline, &arrows, out)
    })?;
    let prof = obs::profile(&set, horizon, obs::profile::DEFAULT_PERIOD_S);
    write_with(dir.join("stacks.jsonl"), |out| set.write_stacks_jsonl(out))?;
    write("profile.folded", prof.to_folded())?;
    write("profile.json", prof.to_json())?;
    Ok(())
}

/// Builds the requested app from the catalog and runs it under its
/// driver, with the given observability bundle attached; a membership plan
/// or the autoscaler sends it through the elastic epoch driver.
fn dispatch(
    opts: &RunOptions,
    spec: &ClusterSpec,
    churn: Option<&prs_core::MembershipPlan>,
    obs: Obs,
) -> Result<Ran, String> {
    let drive = if churn.is_none() && !opts.autoscale {
        Drive::Plain(obs)
    } else {
        Drive::Elastic(prs_core::EpochOptions {
            membership: churn.cloned().unwrap_or_default(),
            autoscale: opts.autoscale.then(prs_core::AutoscalePolicy::default),
            obs,
        })
    };
    opts.app.run(opts.shape, opts.seed, spec, opts.config, drive).map_err(|e| e.to_string())
}
