//! The five workloads and the seeded generator that turns a workload and
//! a seed into child command lines and input files.
//!
//! Children receive only generated flags and files. Every `prs run`
//! job's input size is `nodes x (per_node_points + j)` with `j` drawn
//! from the seed: large enough that the virtual-time results differ
//! between seeds (they are not constants), small enough — and always a
//! whole number of points per node — that event counts and host time do
//! not move with it.

use crate::child::{ChildRun, Cmd};
use crate::parse::{self, RunJson};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Cmeans,
    Wordcount,
}

/// Shape of a workload's `prs run` job.
///
/// C-means stops when its centers move less than 1e-3, which on the
/// generated data takes 4 to 21 iterations depending on the seed; every
/// iterative job is capped at three so that no seed converges early and
/// changes the amount of work.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub app: App,
    pub nodes: usize,
    pub profile: &'static str,
    pub per_node_points: usize,
    /// The seed adds `0..jitter` points per node.
    pub jitter: u64,
    pub dims: usize,
    pub clusters: usize,
    pub iterations: usize,
    pub streams: usize,
    pub mode: &'static str,
    /// Run through the elastic driver with a generated membership plan.
    pub membership: bool,
}

impl Job {
    /// Iterations the job reports: single-pass apps always report one.
    pub fn expected_iterations(&self) -> u64 {
        match self.app {
            App::Cmeans => self.iterations as u64,
            App::Wordcount => 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub job: Job,
    /// The job carries `--obs --record` and the analyzer chain follows it.
    pub observed: bool,
    /// Chaos and churn trials (and the experiment binaries) before the job.
    pub grid_trials: Option<u32>,
    /// `sim_events` of the job, pinned where it does not depend on the
    /// seed (wordcount's depends on the generated corpus).
    pub sim_events: Option<u64>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "kernel_cmeans_4node",
        why: "Host time is data generation plus the apps' real kernels; simtime and netsim idle. Kernel or generator speed-ups show here; an engine or process-model change must predict no change.",
        job: Job {
            app: App::Cmeans,
            nodes: 4,
            profile: "delta",
            per_node_points: 140_000,
            jitter: 64,
            dims: 32,
            clusters: 8,
            iterations: 3,
            streams: 2,
            mode: "static",
            membership: false,
        },
        observed: false,
        grid_trials: None,
        sim_events: Some(3_681),
    },
    Workload {
        name: "scale_cmeans_1000node",
        why: "1000 nodes, negligible kernels: simtime thread hand-offs, device daemons and netsim tree collectives do the work. Where a process-model change must show while kernel_cmeans_4node stays put.",
        job: Job {
            app: App::Cmeans,
            nodes: 1000,
            profile: "micro",
            per_node_points: 20,
            jitter: 8,
            dims: 8,
            clusters: 8,
            iterations: 1,
            streams: 1,
            mode: "static",
            membership: false,
        },
        observed: false,
        grid_trials: None,
        sim_events: Some(101_691),
    },
    Workload {
        name: "shuffle_wordcount_256node",
        why: "The only reduce+shuffle-dominated job: all-to-all sparse shuffle with keyed intermediates through the same netsim/core layers used differently, so a collective-only win that costs the shuffle shows.",
        job: Job {
            app: App::Wordcount,
            nodes: 256,
            profile: "micro",
            per_node_points: 3_900,
            jitter: 64,
            dims: 32,
            clusters: 8,
            iterations: 1,
            streams: 1,
            mode: "static",
            membership: false,
        },
        observed: false,
        grid_trials: None,
        sim_events: None,
    },
    Workload {
        name: "observed_cmeans_128node",
        why: "An event-dense dynamic-scheduling job with --obs --record, then analyze/watch/profile/top/calibrate: the write and read sides of the artifact surface do most of the work; Obs::disabled() elsewhere.",
        job: Job {
            app: App::Cmeans,
            nodes: 128,
            profile: "micro",
            // 3237..3300 points per node: always thirty-three 100-point blocks.
            per_node_points: 3_237,
            jitter: 64,
            dims: 8,
            clusters: 4,
            iterations: 3,
            streams: 1,
            mode: "dynamic:100",
            membership: false,
        },
        observed: true,
        grid_trials: None,
        sim_events: Some(56_356),
    },
    Workload {
        name: "grid_repro_chaos",
        why: "Many short jobs through every driver: chaos and churn grids, the table/experiment binaries, an elastic run. Per-job fixed cost, epoch drivers, checkpoint codec and plan algebra dominate.",
        job: Job {
            app: App::Cmeans,
            nodes: 8,
            profile: "micro",
            per_node_points: 2_000,
            jitter: 64,
            dims: 8,
            clusters: 4,
            iterations: 3,
            streams: 1,
            mode: "static",
            membership: true,
        },
        observed: false,
        grid_trials: Some(32),
        sim_events: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a child command is, which decides how its output is checked and
/// which span its time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Run,
    Analyze,
    Watch,
    Profile,
    Top,
    Calibrate,
    Chaos,
    Churn,
    Table5,
    Crossover,
    OtherExperiment,
}

impl Role {
    pub fn span(self) -> &'static str {
        match self {
            Role::Run => "cli.run",
            Role::Analyze => "cli.analyze",
            Role::Watch => "cli.watch",
            Role::Profile => "cli.profile",
            Role::Top => "cli.top",
            Role::Calibrate => "cli.calibrate",
            Role::Chaos => "cli.chaos",
            Role::Churn => "cli.churn",
            Role::Table5 => "bench.table5",
            Role::Crossover | Role::OtherExperiment => "bench.expt",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Step {
    pub role: Role,
    pub cmd: Cmd,
}

/// How the job is launched: as the workload runs it, or as one of the
/// traced pass's twins.
#[derive(Debug, Clone, Copy)]
pub enum Variant<'a> {
    Plain,
    Observed(&'a Path),
    Engine(&'static str),
}

/// SplitMix64 finalizer over `seed + salt`: the harness's own stream, so
/// seed derivation does not depend on the program under test.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One workload instantiated at one seed, rooted at its output directory.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: &'static Workload,
    pub dir: PathBuf,
    bins: PathBuf,
    pub points: usize,
    pub child_seed: u64,
    chaos_seed: u64,
    plan_seed: u64,
    drain_node: u64,
    evict_node: u64,
}

impl Plan {
    pub fn new(workload: &'static Workload, seed: u64, bins: &Path, dir: &Path) -> Plan {
        let base = seed ^ parse::fnv1a(workload.name.as_bytes());
        let job = &workload.job;
        let jitter = mix(base, 1) % job.jitter.max(1);
        // Two distinct stable node ids in 1..nodes for the elastic plan.
        let drain_node = 1 + mix(base, 5) % (job.nodes as u64 - 1);
        let evict_node =
            1 + (drain_node + mix(base, 6) % (job.nodes as u64 - 2)) % (job.nodes as u64 - 1);
        Plan {
            workload,
            dir: dir.to_path_buf(),
            bins: bins.to_path_buf(),
            points: job.nodes * (job.per_node_points + jitter as usize),
            child_seed: mix(base, 2) % 1_000_000,
            chaos_seed: mix(base, 3) % 1_000_000,
            plan_seed: mix(base, 4) % 1_000_000,
            drain_node,
            evict_node,
        }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn arg(&self, name: &str) -> String {
        self.path(name).display().to_string()
    }

    pub fn prs(&self, args: Vec<String>) -> Cmd {
        Cmd {
            program: self.bins.join("prs"),
            args,
            env: Vec::new(),
        }
    }

    /// An experiment binary writing under `<dir>/expt/experiments/`.
    fn experiment(&self, name: &str) -> Cmd {
        Cmd {
            program: self.bins.join(name),
            args: Vec::new(),
            env: vec![("CARGO_TARGET_DIR".to_string(), self.arg("expt"))],
        }
    }

    pub fn experiment_json(&self, name: &str) -> PathBuf {
        self.dir
            .join("expt")
            .join("experiments")
            .join(format!("{name}.json"))
    }

    /// The workload's `prs run` command line.
    pub fn job_cmd(&self, variant: Variant) -> Cmd {
        let j = &self.workload.job;
        let app = match j.app {
            App::Cmeans => "cmeans",
            App::Wordcount => "wordcount",
        };
        let mut args: Vec<String> = vec!["run".into()];
        let mut flag = |k: &str, v: String| {
            args.push(format!("--{k}"));
            args.push(v);
        };
        flag("app", app.into());
        flag("nodes", j.nodes.to_string());
        flag("profile", j.profile.into());
        flag("points", self.points.to_string());
        flag("dims", j.dims.to_string());
        flag("clusters", j.clusters.to_string());
        flag("iterations", j.iterations.to_string());
        flag("streams", j.streams.to_string());
        flag("mode", j.mode.into());
        flag("seed", self.child_seed.to_string());
        if j.membership {
            flag("membership", self.arg("plan.toml"));
        }
        match variant {
            Variant::Plain => {}
            Variant::Observed(dir) => {
                flag("obs", dir.display().to_string());
                args.push("--record".into());
            }
            Variant::Engine(mode) => flag("engine", mode.into()),
        }
        args.push("--json".into());
        self.prs(args)
    }

    /// The analyzer chain a user runs over an `--obs` bundle.
    pub fn analyzer_steps(&self, bundle: &Path) -> Vec<Step> {
        let b = bundle.display().to_string();
        let cal = bundle.with_extension("cal.toml").display().to_string();
        let step = |role, args: &[&str]| Step {
            role,
            cmd: self.prs(args.iter().map(|s| s.to_string()).collect()),
        };
        vec![
            step(Role::Analyze, &["analyze", &b]),
            step(Role::Watch, &["watch", &b]),
            step(Role::Profile, &["profile", &b]),
            step(Role::Top, &["top", &b, "--frames", "20"]),
            step(
                Role::Calibrate,
                &["calibrate", "--from-trace", &b, "--out", &cal],
            ),
        ]
    }

    /// Chaos and churn grids plus the table/experiment binaries. `full`
    /// adds the two experiments only the grid workload itself runs.
    pub fn grid_steps(&self, trials: u32, full: bool) -> Vec<Step> {
        let chaos = |churn: bool, out: &str| {
            let mut args: Vec<String> = vec!["chaos".into()];
            if churn {
                args.push("--churn".into());
            }
            for (k, v) in [
                ("trials", trials.to_string()),
                ("seed", self.chaos_seed.to_string()),
                ("out", self.arg(out)),
            ] {
                args.push(format!("--{k}"));
                args.push(v);
            }
            self.prs(args)
        };
        let mut steps = vec![
            Step {
                role: Role::Chaos,
                cmd: chaos(false, "chaos_report.json"),
            },
            Step {
                role: Role::Churn,
                cmd: chaos(true, "churn_report.json"),
            },
            Step {
                role: Role::Table5,
                cmd: self.experiment("table5"),
            },
            Step {
                role: Role::Crossover,
                cmd: self.experiment("expt_crossover"),
            },
        ];
        if full {
            for name in ["expt_hetero_nodes", "expt_multi_gpu"] {
                steps.push(Step {
                    role: Role::OtherExperiment,
                    cmd: self.experiment(name),
                });
            }
        }
        steps
    }

    /// The command list one repetition runs, in order.
    pub fn steps(&self) -> Vec<Step> {
        let w = self.workload;
        let mut steps = Vec::new();
        if let Some(trials) = w.grid_trials {
            steps.extend(self.grid_steps(trials, true));
        }
        if w.observed {
            let bundle = self.path("obs");
            steps.push(Step {
                role: Role::Run,
                cmd: self.job_cmd(Variant::Observed(&bundle)),
            });
            steps.extend(self.analyzer_steps(&bundle));
        } else {
            steps.push(Step {
                role: Role::Run,
                cmd: self.job_cmd(Variant::Plain),
            });
        }
        steps
    }

    /// The elastic job's membership plan: two joins, a graceful drain and
    /// an eviction inside the job's first virtual compute iterations
    /// (which start after the 70 ms context creation).
    fn membership_toml(&self) -> String {
        format!(
            "seed = {}\n\n[[scale_out]]\ncount = 2\nat_s = 0.0702\n\n[[drain]]\nnode = {}\nat_s = 0.0704\ndeadline_s = 5.0\n\n[[evict]]\nnode = {}\nat_s = 0.0706\n",
            self.plan_seed, self.drain_node, self.evict_node
        )
    }

    /// Creates the output directory afresh and writes every generated
    /// input plus `commands.txt`, the generated command lines for readers.
    pub fn write_inputs(&self) -> Result<(), String> {
        let io = |e: std::io::Error| format!("preparing {}: {e}", self.dir.display());
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).map_err(io)?;
        }
        std::fs::create_dir_all(self.dir.join("logs")).map_err(io)?;
        if self.workload.job.membership {
            std::fs::write(self.path("plan.toml"), self.membership_toml()).map_err(io)?;
        }
        let listing: String = self
            .steps()
            .iter()
            .map(|s| format!("{} {}\n", s.cmd.program.display(), s.cmd.args.join(" ")))
            .collect();
        std::fs::write(self.path("commands.txt"), listing).map_err(io)
    }
}

/// Operations attempted and failed: every output check is one operation.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("FAILED: {msg}");
            self.failures.push(msg);
        }
        ok
    }

    /// Counts a fallible read as an operation and hands back its value.
    pub fn try_get<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || e);
                None
            }
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Totals of a chaos or churn report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridReport {
    pub trials: u64,
    pub failures: u64,
    pub restores: u64,
    pub checkpoints_written: u64,
    pub speculative_launched: u64,
    pub speculative_won: u64,
}

/// Reads a `chaos_report.json` / `churn_report.json`, counting
/// `all_passed` and every trial's `passed` as operations.
pub fn check_grid_report(path: &Path, ops: &mut Ops) -> Option<GridReport> {
    let doc = ops.try_get(parse::read_json(path))?;
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    ops.check(
        doc["all_passed"].as_bool() == Some(true) && !results.is_empty(),
        || format!("{}: all_passed is not true", path.display()),
    );
    let mut report = GridReport {
        trials: results.len() as u64,
        failures: doc["failures"].as_u64().unwrap_or(0),
        ..GridReport::default()
    };
    let sum = |r: &Value, key: &str| r.get(key).and_then(Value::as_u64).unwrap_or(0);
    for r in &results {
        ops.check(r["passed"].as_bool() == Some(true), || {
            format!("{}: trial {} did not pass", path.display(), r["index"])
        });
        report.restores += sum(r, "restores");
        report.checkpoints_written += sum(r, "checkpoints_written");
        report.speculative_launched += sum(r, "speculative_launched");
        report.speculative_won += sum(r, "speculative_won");
    }
    Some(report)
}

/// Largest Eq-8 error of `table5.json` in percentage points; each row
/// under the paper's 10-point bound is one operation.
pub fn check_table5(path: &Path, ops: &mut Ops) -> Option<f64> {
    let doc = ops.try_get(parse::read_json(path))?;
    let rows = doc.as_array().cloned().unwrap_or_default();
    ops.check(!rows.is_empty(), || format!("{}: no rows", path.display()));
    let mut worst = 0.0f64;
    for r in &rows {
        let pts = r["abs_error"].as_f64().unwrap_or(f64::INFINITY) * 100.0;
        ops.check(pts < 10.0, || {
            format!("{}: {} is {pts} points off Eq 8", path.display(), r["app"])
        });
        worst = worst.max(pts);
    }
    Some(worst)
}

/// `(sum of combined, min of benefit_vs_best_single)` of `expt_crossover.json`.
pub fn check_crossover(path: &Path, ops: &mut Ops) -> Option<(f64, f64)> {
    let doc = ops.try_get(parse::read_json(path))?;
    let rows = doc.as_array().cloned().unwrap_or_default();
    let combined: Vec<f64> = rows.iter().filter_map(|r| r["combined"].as_f64()).collect();
    let benefit: Vec<f64> = rows
        .iter()
        .filter_map(|r| r["benefit_vs_best_single"].as_f64())
        .collect();
    let ok = !rows.is_empty() && combined.len() == rows.len() && benefit.len() == rows.len();
    ops.check(ok, || {
        format!("{}: rows lack combined/benefit columns", path.display())
    })
    .then(|| {
        (
            combined.iter().sum(),
            benefit.iter().copied().fold(f64::INFINITY, f64::min),
        )
    })
}

/// Alert count on the meta line of a bundle's `alerts.jsonl`.
pub fn alerts_in(bundle: &Path) -> Result<u64, String> {
    let path = bundle.join("alerts.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let meta = serde_json::from_str(text.lines().next().unwrap_or(""))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    meta["alerts"]
        .as_u64()
        .ok_or_else(|| format!("{}: no alert count on the meta line", path.display()))
}

/// The deterministic outputs of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Outputs {
    /// `--json` of the workload's job.
    pub run: Option<RunJson>,
    /// Sum of the `combined` column of `expt_crossover.json`.
    pub crossover_combined: Option<f64>,
    /// Content fingerprints that must repeat exactly.
    pub facts: BTreeMap<String, u64>,
}

impl Plan {
    /// Checks one finished step's outputs, counting each check as an
    /// operation, and folds what the harness needs later into `out`.
    pub fn check_step(&self, step: &Step, run: &ChildRun, ops: &mut Ops, out: &mut Outputs) {
        let label = step.role.span();
        ops.check(run.exit_code == 0, || {
            format!("{label}: exit code {}", run.exit_code)
        });
        match step.role {
            Role::Run => {
                out.facts
                    .insert("run.stdout".into(), parse::fnv1a(run.stdout.as_bytes()));
                if let Some(r) = ops.try_get(
                    parse::parse_run_json(&run.stdout).map_err(|e| format!("{label}: {e}")),
                ) {
                    let want = self.workload.job.expected_iterations();
                    ops.check(r.iterations == want, || {
                        format!("{label}: {} iterations, expected {want}", r.iterations)
                    });
                    if let Some(pinned) = self.workload.sim_events {
                        ops.check(r.sim_events == pinned, || {
                            format!("{label}: {} sim_events, pinned {pinned}", r.sim_events)
                        });
                    }
                    out.run = Some(r);
                }
            }
            Role::Watch => {
                // Every observed job here is fault-free: any alert is a false one.
                if let Some(n) = ops.try_get(alerts_in(&self.path("obs"))) {
                    ops.check(n == 0, || {
                        format!("{label}: {n} alert(s) on a fault-free run")
                    });
                }
            }
            Role::Chaos => {
                check_grid_report(&self.path("chaos_report.json"), ops);
            }
            Role::Churn => {
                check_grid_report(&self.path("churn_report.json"), ops);
            }
            Role::Table5 => {
                check_table5(&self.experiment_json("table5"), ops);
            }
            Role::Crossover => {
                out.crossover_combined =
                    check_crossover(&self.experiment_json("expt_crossover"), ops).map(|c| c.0);
            }
            Role::Analyze | Role::Profile | Role::Top | Role::Calibrate | Role::OtherExperiment => {
            }
        }
    }

    /// Fingerprints every artifact file the repetition left behind; call
    /// once after the last step.
    pub fn fingerprint_artifacts(&self, ops: &mut Ops, out: &mut Outputs) {
        let mut dirs = vec![("expt", self.dir.join("expt").join("experiments"))];
        if self.workload.observed {
            dirs.push(("obs", self.path("obs")));
        }
        for (tag, dir) in dirs.into_iter().filter(|(_, d)| d.is_dir()) {
            if let Some(files) = ops.try_get(parse::hash_dir(&dir)) {
                for (name, (hash, _)) in files {
                    out.facts.insert(format!("{tag}/{name}"), hash);
                }
            }
        }
        for name in ["chaos_report.json", "churn_report.json"] {
            if let Ok(bytes) = std::fs::read(self.path(name)) {
                out.facts.insert(name.to_string(), parse::fnv1a(&bytes));
            }
        }
    }
}

/// Compares a repetition's fingerprints with the first repetition's:
/// one operation per artifact. A difference between two repetitions of
/// a deterministic program is a failed operation.
pub fn check_repeats(reference: &Outputs, rep: &Outputs, ops: &mut Ops) {
    for (key, want) in &reference.facts {
        let got = rep.facts.get(key);
        ops.check(got == Some(want), || {
            format!("{key}: content differs between repetitions")
        });
    }
    ops.check(rep.facts.len() == reference.facts.len(), || {
        "a repetition left a different set of artifacts".to_string()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(name: &str, seed: u64) -> Plan {
        Plan::new(
            find(name).unwrap(),
            seed,
            Path::new("/bins"),
            Path::new("/out/w"),
        )
    }

    #[test]
    fn same_seed_same_commands_other_seed_other_inputs() {
        for w in WORKLOADS {
            let render = |seed| -> Vec<String> {
                plan(w.name, seed)
                    .steps()
                    .iter()
                    .map(|s| s.cmd.args.join(" "))
                    .collect()
            };
            assert_eq!(render(42), render(42), "{}", w.name);
            assert_ne!(render(42), render(43), "{}", w.name);
        }
    }

    #[test]
    fn points_are_whole_per_node_and_inside_the_jitter_range() {
        for w in WORKLOADS {
            for seed in 0..200 {
                let p = plan(w.name, seed);
                let j = &w.job;
                assert_eq!(p.points % j.nodes, 0);
                let per_node = p.points / j.nodes;
                assert!(
                    (j.per_node_points..j.per_node_points + j.jitter as usize).contains(&per_node)
                );
            }
        }
    }

    #[test]
    fn elastic_plan_names_two_distinct_live_nodes() {
        for seed in 0..500 {
            let p = plan("grid_repro_chaos", seed);
            let n = p.workload.job.nodes as u64;
            assert!((1..n).contains(&p.drain_node) && (1..n).contains(&p.evict_node));
            assert_ne!(p.drain_node, p.evict_node);
        }
    }

    #[test]
    fn command_lists_have_the_documented_shape() {
        let roles =
            |name: &str| -> Vec<Role> { plan(name, 42).steps().iter().map(|s| s.role).collect() };
        assert_eq!(roles("kernel_cmeans_4node"), [Role::Run]);
        assert_eq!(
            roles("observed_cmeans_128node"),
            [
                Role::Run,
                Role::Analyze,
                Role::Watch,
                Role::Profile,
                Role::Top,
                Role::Calibrate
            ]
        );
        assert_eq!(roles("grid_repro_chaos").len(), 7);
        let observed = plan("observed_cmeans_128node", 42).steps()[0]
            .cmd
            .args
            .join(" ");
        assert!(observed.contains("--obs /out/w/obs --record") && observed.ends_with("--json"));
        let grid = plan("grid_repro_chaos", 42).steps();
        assert!(grid[1].cmd.args.contains(&"--churn".to_string()));
        assert!(grid[6]
            .cmd
            .args
            .join(" ")
            .contains("--membership /out/w/plan.toml"));
        assert_eq!(grid[2].cmd.env[0].0, "CARGO_TARGET_DIR");
    }

    #[test]
    fn ops_count_every_check() {
        let mut ops = Ops::default();
        assert!(ops.check(true, || unreachable!()));
        assert!(!ops.check(false, || "boom".into()));
        assert_eq!(ops.try_get::<u8>(Err("bad".into())), None);
        assert_eq!(ops.try_get(Ok(7)), Some(7));
        assert_eq!((ops.attempted, ops.failed), (4, 2));
        assert_eq!(ops.failed_share(), 0.5);
        assert_eq!(ops.failures, ["boom", "bad"]);
    }

    #[test]
    fn repeats_must_match_artifact_by_artifact() {
        let mut a = Outputs::default();
        a.facts.insert("run.stdout".into(), 1);
        a.facts.insert("obs/events.jsonl".into(), 2);
        let mut ops = Ops::default();
        check_repeats(&a, &a.clone(), &mut ops);
        assert_eq!((ops.attempted, ops.failed), (3, 0));
        let mut b = a.clone();
        b.facts.insert("obs/events.jsonl".into(), 3);
        check_repeats(&a, &b, &mut ops);
        assert_eq!(ops.failed, 1);
    }
}
