//! # prs-cli — argument parsing and command plumbing for the `prs` binary
//!
//! Kept as a library so the option grammar is unit-testable. The grammar
//! is deliberately tiny (no external parser): `--key value` pairs and
//! bare subcommands.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use prs_core::{CalibrationMode, EngineMode, JobConfig, SchedulingMode};
use roofline::model::DataResidency;
use roofline::profiles::DeviceProfile;
use std::collections::BTreeMap;

pub mod top;

/// Which application to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Fuzzy C-means clustering.
    Cmeans,
    /// K-means clustering.
    Kmeans,
    /// Gaussian mixture EM.
    Gmm,
    /// Deterministic-annealing clustering.
    Da,
    /// Matrix-vector multiply.
    Gemv,
    /// Sparse matrix-vector multiply (CSR).
    Spmv,
    /// Matrix-matrix multiply.
    Dgemm,
    /// Word count.
    Wordcount,
    /// Batched FFT.
    Fft,
}

impl AppKind {
    /// Parses an application name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "cmeans" => AppKind::Cmeans,
            "kmeans" => AppKind::Kmeans,
            "gmm" => AppKind::Gmm,
            "da" => AppKind::Da,
            "gemv" => AppKind::Gemv,
            "spmv" => AppKind::Spmv,
            "dgemm" => AppKind::Dgemm,
            "wordcount" => AppKind::Wordcount,
            "fft" => AppKind::Fft,
            other => return Err(format!("unknown app '{other}' (try: cmeans, kmeans, gmm, da, gemv, spmv, dgemm, wordcount, fft)")),
        })
    }

    /// All names, for help text.
    pub fn names() -> &'static [&'static str] {
        &["cmeans", "kmeans", "gmm", "da", "gemv", "spmv", "dgemm", "wordcount", "fft"]
    }
}

/// Parsed `prs run` options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Application to run.
    pub app: AppKind,
    /// Cluster size.
    pub nodes: usize,
    /// Node profile name (`delta` or `bigred2`).
    pub profile: String,
    /// Load the node profile from a calibration TOML file instead of a
    /// preset (the output of `prs calibrate`); overrides `profile`.
    pub profile_file: Option<String>,
    /// Scheduling and runtime knobs.
    pub config: JobConfig,
    /// Input records (points / rows / tokens / signals).
    pub points: usize,
    /// Dimensions (clustering apps) or columns (linear algebra).
    pub dims: usize,
    /// Clusters / mixture components.
    pub clusters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Print the execution Gantt chart.
    pub timeline: bool,
    /// Write a Chrome-tracing JSON file of the execution to this path.
    pub trace_out: Option<String>,
    /// Write the full observability bundle (events.jsonl, metrics.prom,
    /// decisions.jsonl, trace.json) into this directory.
    pub obs_out: Option<String>,
    /// Run through the elastic driver with this membership plan TOML
    /// (scale-out / drain / evict events in virtual time).
    pub membership: Option<String>,
    /// Attach the hysteresis autoscaler (default policy) to the run.
    pub autoscale: bool,
    /// Emit machine-readable JSON instead of prose.
    pub json: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            app: AppKind::Cmeans,
            nodes: 2,
            profile: "delta".to_string(),
            profile_file: None,
            config: JobConfig::static_analytic().with_iterations(10),
            points: 50_000,
            dims: 32,
            clusters: 8,
            seed: 42,
            timeline: false,
            trace_out: None,
            obs_out: None,
            membership: None,
            autoscale: false,
            json: false,
        }
    }
}

/// Parses a scheduling-mode string: `static`, `static:<p>`,
/// `dynamic:<block>`, `gpu`, `cpu`.
pub fn parse_mode(s: &str) -> Result<SchedulingMode, String> {
    if s == "static" {
        return Ok(SchedulingMode::Static { p_override: None });
    }
    if let Some(p) = s.strip_prefix("static:") {
        let p: f64 = p.parse().map_err(|_| format!("bad CPU fraction '{p}'"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("CPU fraction {p} out of [0,1]"));
        }
        return Ok(SchedulingMode::Static { p_override: Some(p) });
    }
    if let Some(b) = s.strip_prefix("dynamic:") {
        let block: usize = b.parse().map_err(|_| format!("bad block size '{b}'"))?;
        if block == 0 {
            return Err("dynamic block size must be positive".to_string());
        }
        return Ok(SchedulingMode::Dynamic { block_items: block });
    }
    match s {
        "gpu" => Ok(SchedulingMode::GpuOnly),
        "cpu" => Ok(SchedulingMode::CpuOnly),
        other => Err(format!(
            "unknown mode '{other}' (try: static, static:<p>, dynamic:<block>, gpu, cpu)"
        )),
    }
}

/// Parses a calibration-mode string: `off`, `online`, `online:<alpha>`.
pub fn parse_calibration(s: &str) -> Result<CalibrationMode, String> {
    if s == "off" {
        return Ok(CalibrationMode::Off);
    }
    if s == "online" {
        return Ok(CalibrationMode::Online {
            alpha: insight::DEFAULT_ALPHA,
        });
    }
    if let Some(a) = s.strip_prefix("online:") {
        let alpha: f64 = a.parse().map_err(|_| format!("bad alpha '{a}'"))?;
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
            return Err(format!("alpha {alpha} out of [0,1]"));
        }
        return Ok(CalibrationMode::Online { alpha });
    }
    Err(format!(
        "unknown calibration '{s}' (try: off, online, online:<alpha>)"
    ))
}

/// Resolves a profile name.
pub fn parse_profile(s: &str) -> Result<DeviceProfile, String> {
    match s {
        "delta" => Ok(DeviceProfile::delta_node()),
        "bigred2" => Ok(DeviceProfile::bigred2_node()),
        "micro" => Ok(DeviceProfile::micro_node()),
        other => Err(format!("unknown profile '{other}' (try: delta, bigred2, micro)")),
    }
}

/// Parses a residency name.
pub fn parse_residency(s: &str) -> Result<DataResidency, String> {
    match s {
        "staged" => Ok(DataResidency::Staged),
        "resident" => Ok(DataResidency::Resident),
        other => Err(format!("unknown residency '{other}' (staged|resident)")),
    }
}

/// Splits an argv tail into `--key value` pairs plus boolean flags.
/// Unknown keys are the caller's problem; duplicate keys keep the last.
pub fn parse_kv(args: &[String]) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let mut kv = BTreeMap::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected --option, got '{a}'"));
        };
        // Boolean flags take no value; a following token starting with
        // `--` (or end of args) marks them.
        if i + 1 >= args.len() || args[i + 1].starts_with("--") {
            flags.push(key.to_string());
            i += 1;
        } else {
            kv.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        }
    }
    Ok((kv, flags))
}

/// Why a subcommand stopped early. `main` is the only place that prints
/// one (`error: <message>`) and turns it into the exit code.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Bad arguments, or a bad input file named by them: exit 2.
    Usage(String),
    /// The command ran and failed: exit 1.
    Failed(String),
}

/// Every parser in this crate reports a bad argument as a bare message,
/// so `?` on one is a usage error; a runtime failure is always wrapped
/// in [`CliError::Failed`] by hand.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

/// The arguments one subcommand accepts. [`ArgSpec::parse`] is the only
/// place that rejects an unknown one.
pub struct ArgSpec {
    keys: &'static [&'static str],
    flags: &'static [&'static str],
    positionals: usize,
}

/// An argv tail checked against its [`ArgSpec`].
#[derive(Debug)]
pub struct Args {
    kv: BTreeMap<String, String>,
    flags: Vec<String>,
    /// The leading unnamed arguments.
    pub positionals: Vec<String>,
}

impl ArgSpec {
    /// A command taking the `--key value` options `keys`, the bare
    /// `--flag`s `flags`, and up to `positionals` leading arguments
    /// without a `--name` (a bundle directory, or `prs diff`'s two).
    pub const fn new(
        keys: &'static [&'static str],
        flags: &'static [&'static str],
        positionals: usize,
    ) -> Self {
        ArgSpec {
            keys,
            flags,
            positionals,
        }
    }

    /// Splits `args` into positionals, options and flags, naming the
    /// first flag (then the first option) the command does not take.
    pub fn parse(&self, args: &[String]) -> Result<Args, String> {
        let lead = args
            .iter()
            .take(self.positionals)
            .take_while(|a| !a.starts_with("--"))
            .count();
        let (kv, flags) = parse_kv(&args[lead..])?;
        if let Some(f) = flags.iter().find(|f| !self.flags.contains(&f.as_str())) {
            return Err(format!("unknown flag --{f}"));
        }
        if let Some(k) = kv.keys().find(|k| !self.keys.contains(&k.as_str())) {
            return Err(format!("unknown option --{k}"));
        }
        Ok(Args {
            kv,
            flags,
            positionals: args[..lead].to_vec(),
        })
    }
}

impl Args {
    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&String> {
        self.kv.get(key)
    }

    /// True when the bare `--name` flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// `--key` parsed as `T`, if given.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let parse = |v: &String| {
            v.parse()
                .map_err(|_| format!("bad value for --{key}: '{v}'"))
        };
        self.kv.get(key).map(parse).transpose()
    }

    /// `--key` parsed as `T`, or `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// The bundle directory: the first positional or `--dir`; `missing`
    /// is the error when neither was given.
    pub fn dir(&self, missing: &str) -> Result<String, String> {
        self.positionals
            .first()
            .or_else(|| self.get("dir"))
            .cloned()
            .ok_or_else(|| missing.to_string())
    }
}

const RUN_ARGS: ArgSpec = ArgSpec::new(
    &[
        "app", "nodes", "profile", "profile-file", "mode", "iterations", "points", "dims",
        "clusters", "seed", "gpus", "streams", "blocks-per-core", "trace", "obs", "calibrate",
        "engine", "record-window", "record-budget", "membership",
    ],
    &["timeline", "json", "record", "autoscale"],
    0,
);

/// Vocabulary words `--app wordcount` generates per `--clusters`.
pub const WORDS_PER_CLUSTER: u32 = 100;

/// Parses the full `prs run` argument tail.
pub fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let kv = RUN_ARGS.parse(args)?;
    let mut opts = RunOptions::default();
    if let Some(app) = kv.get("app") {
        opts.app = AppKind::parse(app)?;
    }
    opts.nodes = kv.parsed("nodes", opts.nodes)?;
    if opts.nodes == 0 {
        return Err("--nodes must be at least 1".to_string());
    }
    if let Some(p) = kv.get("profile") {
        parse_profile(p)?; // validate
        opts.profile = p.clone();
    }
    opts.profile_file = kv.get("profile-file").cloned();
    if let Some(mode) = kv.get("mode") {
        opts.config.scheduling = parse_mode(mode)?;
    }
    if let Some(cal) = kv.get("calibrate") {
        opts.config.calibration = parse_calibration(cal)?;
    }
    if let Some(engine) = kv.get("engine") {
        opts.config.engine = engine
            .parse::<EngineMode>()
            .map_err(|e| format!("bad value for --engine: {e}"))?;
    }
    opts.config.max_iterations = kv.parsed("iterations", opts.config.max_iterations)?;
    opts.config.gpus_per_node = kv.parsed("gpus", opts.config.gpus_per_node)?;
    opts.config.gpu_streams = kv.parsed("streams", opts.config.gpu_streams)?;
    opts.config.blocks_per_core = kv.parsed("blocks-per-core", opts.config.blocks_per_core)?;
    opts.points = kv.parsed("points", opts.points)?;
    opts.dims = kv.parsed("dims", opts.dims)?;
    opts.clusters = kv.parsed("clusters", opts.clusters)?;
    opts.seed = kv.parsed("seed", opts.seed)?;
    // The clustering apps seed their model from the data and need more
    // points than clusters; their constructors assert it.
    let clustering = matches!(
        opts.app,
        AppKind::Cmeans | AppKind::Kmeans | AppKind::Gmm | AppKind::Da
    );
    let k = opts.clusters.max(1);
    if clustering && k >= opts.points {
        return Err(format!(
            "--clusters {k} needs at least {} points, got --points {}",
            k + 1,
            opts.points
        ));
    }
    // Word count reads --clusters as hundreds of words of a `u32`
    // vocabulary; past this the product wrapped to some other size.
    let most = (u32::MAX / WORDS_PER_CLUSTER) as usize;
    if opts.app == AppKind::Wordcount && k > most {
        return Err(format!(
            "--clusters {k} is too many for --app wordcount: at most {most} \
             ({WORDS_PER_CLUSTER} vocabulary words each)"
        ));
    }
    opts.timeline = kv.flag("timeline");
    opts.json = kv.flag("json");
    opts.trace_out = kv.get("trace").cloned();
    opts.obs_out = kv.get("obs").cloned();
    opts.membership = kv.get("membership").cloned();
    opts.autoscale = kv.flag("autoscale");
    // The elastic driver checkpoints and rebases the running app across
    // epochs; only checkpointable iterative apps qualify (C-means today).
    if (opts.membership.is_some() || opts.autoscale) && opts.app != AppKind::Cmeans {
        return Err(
            "--membership / --autoscale require a checkpointable iterative app (--app cmeans)"
                .to_string(),
        );
    }
    if kv.flag("record") || kv.get("record-window").is_some() || kv.get("record-budget").is_some() {
        let mut rec = obs::RecorderConfig::enabled();
        rec.window = kv.parsed("record-window", rec.window)?;
        rec.budget = kv.parsed("record-budget", rec.budget)?;
        if rec.window <= 0.0 || !rec.window.is_finite() {
            return Err("--record-window must be a positive number of virtual seconds".to_string());
        }
        if rec.budget == 0 {
            return Err("--record-budget must be at least 1".to_string());
        }
        opts.config = opts.config.with_recorder(rec);
    }
    if opts.timeline || opts.trace_out.is_some() || opts.obs_out.is_some() {
        opts.config.record_timeline = true;
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn kv_parsing_mixes_pairs_and_flags() {
        let (kv, flags) = parse_kv(&argv("--nodes 4 --json --app gemv --timeline")).unwrap();
        assert_eq!(kv.get("nodes").unwrap(), "4");
        assert_eq!(kv.get("app").unwrap(), "gemv");
        assert_eq!(flags, vec!["json", "timeline"]);
    }

    #[test]
    fn kv_rejects_positional() {
        assert!(parse_kv(&argv("nodes 4")).is_err());
    }

    #[test]
    fn mode_grammar() {
        assert!(matches!(
            parse_mode("static").unwrap(),
            SchedulingMode::Static { p_override: None }
        ));
        assert!(matches!(
            parse_mode("static:0.25").unwrap(),
            SchedulingMode::Static { p_override: Some(p) } if p == 0.25
        ));
        assert!(matches!(
            parse_mode("dynamic:500").unwrap(),
            SchedulingMode::Dynamic { block_items: 500 }
        ));
        assert!(matches!(parse_mode("gpu").unwrap(), SchedulingMode::GpuOnly));
        assert!(matches!(parse_mode("cpu").unwrap(), SchedulingMode::CpuOnly));
        assert!(parse_mode("static:1.5").is_err());
        assert!(parse_mode("dynamic:0").is_err());
        assert!(parse_mode("magic").is_err());
    }

    #[test]
    fn run_defaults_and_overrides() {
        let opts = parse_run(&argv(
            "--app gmm --nodes 8 --points 1000 --mode dynamic:50 --timeline --trace /tmp/t.json",
        ))
        .unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(opts.app, AppKind::Gmm);
        assert_eq!(opts.nodes, 8);
        assert_eq!(opts.points, 1000);
        assert!(opts.timeline);
        assert!(opts.config.record_timeline);
        assert!(matches!(
            opts.config.scheduling,
            SchedulingMode::Dynamic { block_items: 50 }
        ));
        // Untouched defaults survive.
        assert_eq!(opts.dims, 32);
        assert_eq!(opts.config.gpus_per_node, 1);
    }

    #[test]
    fn obs_option_enables_timeline_recording() {
        let opts = parse_run(&argv("--app cmeans --obs /tmp/obs-out")).unwrap();
        assert_eq!(opts.obs_out.as_deref(), Some("/tmp/obs-out"));
        assert!(opts.config.record_timeline, "--obs implies timeline capture");
        let plain = parse_run(&argv("--app cmeans")).unwrap();
        assert_eq!(plain.obs_out, None);
        assert!(!plain.config.record_timeline);
    }

    #[test]
    fn record_flag_arms_the_flight_recorder() {
        let plain = parse_run(&argv("--app cmeans")).unwrap();
        assert!(!plain.config.recorder.is_enabled());
        let rec = parse_run(&argv("--app cmeans --record")).unwrap();
        assert!(rec.config.recorder.is_enabled());
        assert_eq!(rec.config.recorder.budget, obs::RecorderConfig::enabled().budget);
        let tuned =
            parse_run(&argv("--record --record-window 2.5 --record-budget 512")).unwrap();
        assert_eq!(tuned.config.recorder.window, 2.5);
        assert_eq!(tuned.config.recorder.budget, 512);
        // Tuning options imply --record on their own.
        let implied = parse_run(&argv("--record-budget 64")).unwrap();
        assert!(implied.config.recorder.is_enabled());
        assert!(parse_run(&argv("--record-budget 0")).is_err());
        assert!(parse_run(&argv("--record-window -1")).is_err());
    }

    #[test]
    fn membership_and_autoscale_grammar() {
        let opts = parse_run(&argv("--app cmeans --membership /tmp/plan.toml")).unwrap();
        assert_eq!(opts.membership.as_deref(), Some("/tmp/plan.toml"));
        assert!(!opts.autoscale);
        let auto = parse_run(&argv("--autoscale")).unwrap();
        assert!(auto.autoscale, "default app is cmeans, so --autoscale stands alone");
        assert_eq!(auto.membership, None);
        let both = parse_run(&argv("--membership p.toml --autoscale")).unwrap();
        assert!(both.autoscale && both.membership.is_some());
        let plain = parse_run(&argv("--app cmeans")).unwrap();
        assert_eq!(plain.membership, None);
        assert!(!plain.autoscale);
        // Elastic runs need a checkpointable iterative app.
        assert!(parse_run(&argv("--app gemv --membership p.toml")).is_err());
        assert!(parse_run(&argv("--app kmeans --autoscale")).is_err());
    }

    #[test]
    fn run_rejects_unknown_options() {
        assert!(parse_run(&argv("--bogus 3")).is_err());
        assert!(parse_run(&argv("--frobnicate")).is_err());
        assert!(parse_run(&argv("--nodes 0")).is_err());
        assert!(parse_run(&argv("--nodes abc")).is_err());
        // Clustering apps need more points than clusters; the others do
        // not read --clusters that way.
        assert!(parse_run(&argv("--app kmeans --clusters 8 --points 8")).is_err());
        assert!(parse_run(&argv("--app da --clusters 0 --points 1")).is_err());
        assert!(parse_run(&argv("--app cmeans --clusters 8 --points 9")).is_ok());
        assert!(parse_run(&argv("--app gemv --clusters 8 --points 4")).is_ok());
        // Word count's vocabulary, 100 words per cluster, is a u32.
        assert!(parse_run(&argv("--app wordcount --clusters 42949672")).is_ok());
        let wrapped = parse_run(&argv("--app wordcount --clusters 42949673")).unwrap_err();
        assert!(wrapped.contains("--clusters 42949673"), "{wrapped}");
        assert!(wrapped.contains("at most 42949672"), "{wrapped}");
        assert!(parse_run(&argv("--app gemv --clusters 50000000")).is_ok());
    }

    #[test]
    fn calibration_grammar() {
        assert_eq!(parse_calibration("off").unwrap(), CalibrationMode::Off);
        assert!(matches!(
            parse_calibration("online").unwrap(),
            CalibrationMode::Online { alpha } if alpha == insight::DEFAULT_ALPHA
        ));
        assert!(matches!(
            parse_calibration("online:0.5").unwrap(),
            CalibrationMode::Online { alpha } if alpha == 0.5
        ));
        assert!(parse_calibration("online:1.5").is_err());
        assert!(parse_calibration("offline").is_err());
    }

    #[test]
    fn run_accepts_calibration_and_profile_file() {
        let opts = parse_run(&argv("--calibrate online:0.4 --profile-file /tmp/p.toml")).unwrap();
        assert!(matches!(
            opts.config.calibration,
            CalibrationMode::Online { alpha } if alpha == 0.4
        ));
        assert_eq!(opts.profile_file.as_deref(), Some("/tmp/p.toml"));
        let plain = parse_run(&argv("--app cmeans")).unwrap();
        assert_eq!(plain.config.calibration, CalibrationMode::Off);
        assert_eq!(plain.profile_file, None);
        assert!(parse_run(&argv("--calibrate sometimes")).is_err());
    }

    #[test]
    fn engine_grammar() {
        let opts = parse_run(&argv("--app cmeans --engine parallel")).unwrap();
        assert_eq!(opts.config.engine, EngineMode::Parallel);
        let opts = parse_run(&argv("--engine legacy")).unwrap();
        assert_eq!(opts.config.engine, EngineMode::LegacyHeap);
        let plain = parse_run(&argv("--app cmeans")).unwrap();
        assert_eq!(plain.config.engine, EngineMode::Calendar);
        assert!(parse_run(&argv("--engine warp")).is_err());
    }

    #[test]
    fn app_names_round_trip() {
        for name in AppKind::names() {
            assert!(AppKind::parse(name).is_ok(), "{name}");
        }
        assert!(AppKind::parse("nonsense").is_err());
    }

    #[test]
    fn profiles_resolve() {
        assert_eq!(parse_profile("delta").unwrap().name, "Delta");
        assert_eq!(parse_profile("bigred2").unwrap().name, "BigRed2");
        assert_eq!(parse_profile("micro").unwrap().name, "Micro");
        assert!(parse_profile("titan").is_err());
    }

    #[test]
    fn residency_grammar() {
        assert_eq!(parse_residency("staged").unwrap(), DataResidency::Staged);
        assert_eq!(parse_residency("resident").unwrap(), DataResidency::Resident);
        assert!(parse_residency("cached").is_err());
    }
}
