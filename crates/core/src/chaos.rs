//! Seeded chaos harness: samples deterministic fault plans across a grid
//! of jobs and cluster shapes, runs each through the epoch driver,
//! and asserts the recovery invariants the rest of the stack depends on:
//!
//! 1. **Result equivalence** — the recovered run's final outputs and
//!    model state are bit-identical to a fault-free run of the same job
//!    (the app under test uses order-insensitive exact integer reduces,
//!    where bit-identity is guaranteed).
//! 2. **Flow conservation** — every `msg-send` on the event bus has a
//!    matching `msg-recv` per flow id: crashes abort at iteration
//!    boundaries, never mid-message.
//! 3. **Counter consistency** — `speculative_launched ==
//!    speculative_won + speculative_wasted`, and `restores ==
//!    node_crashes + master_failovers == epochs - 1`.
//! 4. **Monotone virtual clock** — cumulative epoch base times strictly
//!    increase and every epoch ends at or after its base.
//!
//! Everything is a pure function of the seed: the same `(trials, seed)`
//! pair yields the same trial grid, the same fault plans, and the same
//! report, byte for byte.

use crate::api::{CheckpointableApp, DeviceClass, IterativeApp, Key, SpmdApp};
use crate::cluster::ClusterSpec;
use crate::config::JobConfig;
use crate::epoch::{run_epochs, ElasticOutcome, EpochOptions};
use crate::faults::{splitmix64, FaultPlan};
use crate::job::run_iterative_observed;
use crate::membership::{MembershipCounters, MembershipPlan};
use crate::metrics::RecoveryCounters;
use obs::{kinds, Obs};
use watch::{score_trials, FaultKind, GroundTruthFault, TrialWatch, WatchConfig, WatchScore};
use parking_lot::RwLock;
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Chaos-harness parameters: how many seeded trials to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Trials to sample (each gets its own derived seed).
    pub trials: usize,
    /// Root seed; every trial's plan derives from it deterministically.
    pub seed: u64,
    /// Simulation engine the trials run under. Deliberately *excluded*
    /// from [`ChaosReport::to_json`]: the determinism contract says the
    /// report is a pure function of `(trials, seed)` whatever the engine,
    /// so reports from different engines must stay byte-identical.
    pub engine: simtime::EngineMode,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            trials: 32,
            seed: 7,
            engine: simtime::EngineMode::Calendar,
        }
    }
}

/// One chaos trial: the sampled shape, the injected crashes, and the
/// invariant verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosTrial {
    /// Trial index within the run.
    pub index: usize,
    /// Node count sampled for this trial.
    pub nodes: usize,
    /// Input items.
    pub items: usize,
    /// Distinct reduce keys.
    pub keys: usize,
    /// Iteration cap.
    pub iterations: usize,
    /// True when the trial used dynamic (polling) scheduling.
    pub dynamic: bool,
    /// Checkpoint cadence (iterations).
    pub checkpoint_interval: usize,
    /// True when speculative backups were armed.
    pub speculation: bool,
    /// Worker-node crashes injected.
    pub node_crashes: usize,
    /// Master crashes injected.
    pub master_crashes: usize,
    /// Recovery epochs the epoch driver ran (1 = no crash fired).
    pub epochs: usize,
    /// Merged recovery counters of the chaotic run.
    pub recovery: RecoveryCounters,
    /// Invariant 1: outputs and final model state match fault-free.
    pub result_identical: bool,
    /// Invariant 2: per-flow send/recv counts balance on the event bus.
    pub flow_conserved: bool,
    /// Invariant 3a: `launched == won + wasted`.
    pub speculation_reconciled: bool,
    /// Invariant 3b: restores match crashes match epochs.
    pub counters_consistent: bool,
    /// Invariant 4: epoch base times strictly increase.
    pub clock_monotone: bool,
}

impl ChaosTrial {
    /// All invariants hold.
    pub fn passed(&self) -> bool {
        self.result_identical
            && self.flow_conserved
            && self.speculation_reconciled
            && self.counters_consistent
            && self.clock_monotone
    }
}

/// The full chaos run: every trial plus coverage aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Root seed the grid derives from.
    pub seed: u64,
    /// Per-trial records, in index order.
    pub trials: Vec<ChaosTrial>,
}

impl ChaosReport {
    /// Trials that injected at least one worker-node crash.
    pub fn worker_crash_trials(&self) -> usize {
        self.trials.iter().filter(|t| t.node_crashes > 0).count()
    }

    /// Trials that injected at least one master crash.
    pub fn master_crash_trials(&self) -> usize {
        self.trials.iter().filter(|t| t.master_crashes > 0).count()
    }

    /// Trials with at least one invariant violated.
    pub fn failures(&self) -> usize {
        self.trials.iter().filter(|t| !t.passed()).count()
    }

    /// Every trial passed every invariant.
    pub fn all_passed(&self) -> bool {
        self.failures() == 0
    }

    /// Aggregate speculation counters across all trials, for the
    /// `won + wasted == launched` reconciliation line in the report.
    pub fn speculation_totals(&self) -> (u64, u64, u64) {
        self.trials.iter().fold((0, 0, 0), |(l, w, x), t| {
            (
                l + t.recovery.speculative_launched,
                w + t.recovery.speculative_won,
                x + t.recovery.speculative_wasted,
            )
        })
    }

    /// Aggregate `won + wasted == launched` reconciliation across all
    /// trials.
    pub fn speculation_reconciles(&self) -> bool {
        let (launched, won, wasted) = self.speculation_totals();
        launched == won + wasted
    }

    /// Deterministic JSON rendering (`serde_json` orders object keys, so
    /// the same report always serializes to the same bytes).
    pub fn to_json(&self) -> Value {
        let (launched, won, wasted) = self.speculation_totals();
        json!({
            "seed": self.seed,
            "trials": self.trials.len(),
            "worker_crash_trials": self.worker_crash_trials(),
            "master_crash_trials": self.master_crash_trials(),
            "failures": self.failures(),
            "all_passed": self.all_passed(),
            "speculative_launched": launched,
            "speculative_won": won,
            "speculative_wasted": wasted,
            "speculation_reconciles": self.speculation_reconciles(),
            "results": self.trials.iter().map(|t| json!({
                "index": t.index,
                "nodes": t.nodes,
                "items": t.items,
                "keys": t.keys,
                "iterations": t.iterations,
                "scheduling": if t.dynamic { "dynamic" } else { "static" },
                "checkpoint_interval": t.checkpoint_interval,
                "speculation": t.speculation,
                "node_crashes": t.node_crashes,
                "master_crashes": t.master_crashes,
                "epochs": t.epochs,
                "checkpoints_written": t.recovery.checkpoints_written,
                "restores": t.recovery.restores,
                "speculative_launched": t.recovery.speculative_launched,
                "speculative_won": t.recovery.speculative_won,
                "speculative_wasted": t.recovery.speculative_wasted,
                "result_identical": t.result_identical,
                "flow_conserved": t.flow_conserved,
                "speculation_reconciled": t.speculation_reconciled,
                "counters_consistent": t.counters_consistent,
                "clock_monotone": t.clock_monotone,
                "passed": t.passed(),
            })).collect::<Vec<_>>(),
        })
    }
}

/// The harness's application: an iterative integer job whose map output
/// depends on the model state of the previous iteration (so a botched
/// restore corrupts every later iteration) and whose reduce is an
/// order-insensitive wrapping sum (so recovered runs are bit-identical
/// to fault-free ones by construction — any mismatch is a runtime bug).
struct ChaosApp {
    n: usize,
    k: usize,
    /// Round at which `update` reports convergence (0 = run to the cap).
    converge_round: u64,
    state: RwLock<(u64, u64)>, // (round, accumulator)
}

impl ChaosApp {
    fn new(n: usize, k: usize, converge_round: u64) -> Self {
        ChaosApp {
            n,
            k,
            converge_round,
            state: RwLock::new((0, 0x243f_6a88_85a3_08d3)),
        }
    }

    fn mix(item: u64, acc: u64) -> u64 {
        let mut s = item ^ acc.rotate_left(17);
        splitmix64(&mut s)
    }
}

impl SpmdApp for ChaosApp {
    type Inter = u64;
    type Output = u64;

    fn num_items(&self) -> usize {
        self.n
    }

    fn item_bytes(&self) -> u64 {
        8
    }

    fn workload(&self) -> Workload {
        Workload::uniform(2.0, DataResidency::Staged)
    }

    fn cpu_map(&self, _node: usize, r: Range<usize>) -> Vec<(Key, u64)> {
        let acc = self.state.read().1;
        r.map(|i| ((i % self.k) as Key, Self::mix(i as u64, acc)))
            .collect()
    }

    fn gpu_map(&self, node: usize, r: Range<usize>) -> Vec<(Key, u64)> {
        // Identical to the CPU flavour: blocks migrate between device
        // classes under speculation and GPU-crash requeues, and results
        // must not depend on where they land.
        self.cpu_map(node, r)
    }

    fn reduce(&self, _d: DeviceClass, _k: Key, values: Vec<u64>) -> u64 {
        values.into_iter().fold(0u64, u64::wrapping_add)
    }
}

impl IterativeApp for ChaosApp {
    fn update(&self, outputs: &[(Key, u64)]) -> bool {
        let mut st = self.state.write();
        let mut acc = st.1;
        for &(k, v) in outputs {
            acc = acc
                .wrapping_mul(0x0000_0100_0000_01b3)
                .wrapping_add(v ^ k.rotate_left(32));
        }
        st.0 += 1;
        st.1 = acc;
        self.converge_round != 0 && st.0 >= self.converge_round
    }
}

impl CheckpointableApp for ChaosApp {
    fn save_state(&self) -> Vec<u8> {
        let st = self.state.read();
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&st.0.to_le_bytes());
        out.extend_from_slice(&st.1.to_le_bytes());
        out
    }

    fn restore_state(&self, bytes: &[u8]) {
        assert_eq!(bytes.len(), 16, "chaos app state is 16 bytes");
        let round = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        let acc = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        *self.state.write() = (round, acc);
    }
}

/// Per-flow send/recv balance over the recorded event bus: conservation
/// means every control-plane and shuffle message that was sent also
/// arrived (crashes abort at iteration boundaries, never mid-message).
/// Panics on a kind [`kinds::ALL`] does not name: that is a producer
/// bug, not a trial verdict.
fn flows_conserved(obs: &Obs) -> bool {
    let mut balance: BTreeMap<u64, i64> = BTreeMap::new();
    obs.bus.with_events(|log| {
        for ev in log {
            let kind = ev.kind();
            assert!(kinds::ALL.contains(&kind), "unnamed event kind {kind:?}");
            let delta = match kind {
                kinds::MSG_SEND => 1,
                kinds::MSG_RECV => -1,
                _ => continue,
            };
            if let Some((_, flow)) = ev.attrs().find(|(name, _)| *name == "flow") {
                *balance.entry(flow as u64).or_insert(0) += delta;
            }
        }
    });
    balance.values().all(|&b| b == 0)
}

/// The watchdog's verdict over everything `obs` recorded — a trial's
/// bundle is fresh, so that is the whole run — read from the bus's own
/// records.
fn watch_bus(obs: &Obs, rules: &WatchConfig) -> watch::WatchOutput {
    let decisions = obs.audit.records();
    obs.bus.with_events(|log| watch::watch(&log.iter().collect::<Vec<_>>(), &decisions, rules))
}

/// Extracts the watchdog-scoreable ground truth from a fault plan.
/// Slowdown windows below the straggler factor are not expected to be
/// detectable and are excluded.
pub fn ground_truth_from_plan(plan: &FaultPlan) -> Vec<GroundTruthFault> {
    let fault = |kind, node: Option<usize>, at_secs| GroundTruthFault {
        kind,
        node: node.map(|n| n as u64),
        at_secs,
    };
    let detectable = |factor: f64| factor >= insight::critical::STRAGGLER_FACTOR;
    let nodes = plan.node_crashes.iter();
    let masters = plan.master_crashes.iter();
    let cpus = plan.cpu_slowdowns.iter().filter(|s| detectable(s.factor));
    let gpus = plan.gpu_slowdowns.iter().filter(|s| detectable(s.factor));
    (nodes.map(|c| fault(FaultKind::NodeCrash, Some(c.node), c.at_secs)))
        .chain(masters.map(|c| fault(FaultKind::MasterCrash, None, c.at_secs)))
        .chain(cpus.map(|s| fault(FaultKind::CpuSlowdown, Some(s.node), s.from_secs)))
        .chain(gpus.map(|s| fault(FaultKind::GpuSlowdown, Some(s.node), s.from_secs)))
        .collect()
}

/// Trims the planned crashes of `kind` down to the `fired` earliest ones,
/// matching what the runtime's recovery counters confirm actually
/// happened. A co-scheduled crash can be outrun: after an earlier
/// recovery rebases the plan, the job may finish before the rebased
/// crash instant arrives, so that crash never fires.
fn retain_fired(truth: &mut Vec<GroundTruthFault>, kind: FaultKind, fired: usize) {
    let mut idx: Vec<usize> = (0..truth.len()).filter(|&i| truth[i].kind == kind).collect();
    idx.sort_by(|&a, &b| truth[a].at_secs.total_cmp(&truth[b].at_secs));
    let dropped: std::collections::BTreeSet<usize> = idx.into_iter().skip(fired).collect();
    let kept = std::mem::take(truth).into_iter().enumerate().filter(|(i, _)| !dropped.contains(i));
    *truth = kept.map(|(_, fault)| fault).collect();
}

/// One chaos trial's flight-recorder output: the incident captures, the
/// assembled postmortem document, the recorder's memory accounting, and
/// the files of the trial's directory ([`TrialRecording::files`]).
#[derive(Debug, Clone)]
pub struct TrialRecording {
    /// Trial index within the run.
    pub index: usize,
    /// One capture per incident the watchdog assembled.
    pub captures: Vec<obs::Capture>,
    /// The trial's `postmortem.json` document
    /// (`watch::capture_postmortem` over the captures, incidents, Eq-(8)
    /// audit rows, and profiler frames).
    pub postmortem: Value,
    /// Recorder memory accounting at end of trial.
    pub recorder: obs::RecorderSummary,
    /// The chaotic run's total virtual seconds — bit-comparable against
    /// an unrecorded run to prove recording never touches the clock.
    pub total_virtual_secs: f64,
    // The linked incidents (one line each, no meta line), the Eq-(8)
    // audit rows and the profiler frames, as the trial dir holds them.
    incidents_jsonl: String,
    decisions_jsonl: String,
    stacks_jsonl: String,
}

impl TrialRecording {
    /// The files of the trial's directory as (path under the records
    /// directory, contents), in the order `prs chaos --record` writes
    /// them: the captures, `incidents.jsonl` when an incident opened,
    /// `decisions.jsonl` and `stacks.jsonl` (so the directory is a
    /// self-contained `prs postmortem` input), then `postmortem.json`.
    pub fn files(&self) -> Vec<(String, String)> {
        let mut files: Vec<(String, String)> =
            self.captures.iter().map(|c| (c.file_name(), c.to_jsonl())).collect();
        if !self.incidents_jsonl.is_empty() {
            files.push(("incidents.jsonl".into(), self.incidents_jsonl.clone()));
        }
        files.push(("decisions.jsonl".into(), self.decisions_jsonl.clone()));
        files.push(("stacks.jsonl".into(), self.stacks_jsonl.clone()));
        files.push(("postmortem.json".into(), self.postmortem.to_json_string_pretty() + "\n"));
        let dir = format!("trial-{}", self.index);
        files.into_iter().map(|(name, text)| (format!("{dir}/{name}"), text)).collect()
    }
}

/// What a fault-grid run attaches to its trials besides the invariants.
/// The report is byte-identical whichever it is: the watchdog and the
/// flight recorder only read, and never advance virtual time.
#[derive(Debug, Clone, Copy)]
pub enum ChaosWatch<'a> {
    /// The invariants only.
    Off,
    /// The health watchdog with these rules on every trial, its incidents
    /// joined against the injected plan; each trial's fault-free baseline
    /// is the false-positive check.
    Scored(&'a WatchConfig),
    /// [`ChaosWatch::Scored`], with the flight recorder armed: each trial's
    /// incidents capture their windows and assemble into a postmortem.
    Recorded(&'a WatchConfig),
}

/// A trial's random stream, derived from the root seed and its index;
/// `salt` keeps one grid's trials from replaying another's draws.
struct Draws(u64);

impl Draws {
    fn new(seed: u64, index: usize, salt: u64) -> Self {
        Draws(seed.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ salt)
    }

    fn below(&mut self, m: u64) -> u64 {
        splitmix64(&mut self.0) % m
    }

    fn unit(&mut self) -> f64 {
        (splitmix64(&mut self.0) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick(&mut self, pool: &mut Vec<usize>) -> usize {
        pool.remove(self.below(pool.len() as u64) as usize)
    }
}

/// The job a trial runs, as its grid sampled it.
struct TrialJob {
    nodes: usize,
    items: usize,
    keys: usize,
    converge_round: u64,
    config: JobConfig,
}

/// The fault-free fixed-cluster run a trial is judged against; fault and
/// churn times are fractions of its `span`.
struct Baseline {
    outputs: Vec<(Key, u64)>,
    state: Vec<u8>,
    span: f64,
}

/// A trial's run through the epoch driver and the verdicts both grids
/// assert on it: outputs and model state equal the baseline's, flows
/// balance on the bus, and [`epoch_clock_monotone`].
struct TrialRun {
    outcome: ElasticOutcome<u64>,
    result_identical: bool,
    flow_conserved: bool,
    clock_monotone: bool,
}

impl TrialJob {
    fn config(dynamic: bool, iterations: usize, engine: simtime::EngineMode) -> JobConfig {
        if dynamic {
            JobConfig::dynamic(16)
        } else {
            JobConfig::static_analytic()
        }
        .with_iterations(iterations)
        .with_engine(engine)
    }

    fn app(&self) -> Arc<ChaosApp> {
        Arc::new(ChaosApp::new(self.items, self.keys, self.converge_round))
    }

    fn baseline(&self, obs: Obs) -> Baseline {
        let app = self.app();
        let spec = ClusterSpec::delta(self.nodes);
        let run = run_iterative_observed(&spec, app.clone(), self.config, obs)
            .expect("chaos baseline run");
        Baseline {
            outputs: run.outputs,
            state: app.save_state(),
            span: run.metrics.total_seconds,
        }
    }

    /// Runs the trial through the epoch driver, observed into `obs`, and
    /// judges it against `baseline`.
    fn run(
        &self,
        baseline: &Baseline,
        checkpoint_interval: usize,
        faults: FaultPlan,
        membership: MembershipPlan,
        obs: &Obs,
    ) -> TrialRun {
        let app = self.app();
        let outcome = run_epochs(
            &ClusterSpec::delta(self.nodes).with_faults(faults),
            app.clone(),
            self.config.with_checkpoint_interval(checkpoint_interval),
            EpochOptions {
                membership,
                autoscale: None,
                obs: obs.clone(),
            },
        )
        .expect("chaos trial run");
        TrialRun {
            result_identical: outcome.outputs == baseline.outputs
                && app.save_state() == baseline.state,
            flow_conserved: flows_conserved(obs),
            clock_monotone: epoch_clock_monotone(&outcome),
            outcome,
        }
    }
}

/// Runs the seeded chaos grid (see the module docs) with `watch`
/// attached to every trial. Returns the invariant report, the
/// watchdog's detection-quality score (`None` under [`ChaosWatch::Off`])
/// and, under [`ChaosWatch::Recorded`], one [`TrialRecording`] per
/// trial. Panics only on driver errors (an invalid sampled config is a
/// harness bug); invariant violations are recorded in the report, not
/// panicked on.
pub fn run_chaos(
    cfg: &ChaosConfig,
    watch: ChaosWatch,
) -> (ChaosReport, Option<WatchScore>, Vec<TrialRecording>) {
    let rules = match watch {
        ChaosWatch::Off => None,
        ChaosWatch::Scored(rules) | ChaosWatch::Recorded(rules) => Some(rules),
    };
    let mut trials = Vec::new();
    let mut watched: Vec<TrialWatch> = Vec::new();
    let mut recordings: Vec<TrialRecording> = Vec::new();
    for index in 0..cfg.trials {
        let mut s = Draws::new(cfg.seed, index, 0);
        let nodes = 2 + s.below(2) as usize;
        let items = 64 + 32 * s.below(4) as usize;
        let keys = 3 + s.below(3) as usize;
        let iterations = 4 + s.below(3) as usize;
        let converge_round = if s.below(4) == 0 { iterations as u64 - 1 } else { 0 };
        let dynamic = s.below(2) == 1;
        let checkpoint_interval = 1 + s.below(2) as usize;
        let speculation = s.below(3) == 0;
        let mut config = TrialJob::config(dynamic, iterations, cfg.engine);
        if speculation {
            config = config.with_speculation(1.5 + s.unit());
        }
        let job = TrialJob { nodes, items, keys, converge_round, config };

        // Under scoring the baseline is also recorded and watched — a
        // healthy run firing any alert is a false positive. Recording is
        // zero-virtual-time-overhead, so `span` (and with it the sampled
        // crash times and the whole report) is identical either way.
        let baseline_obs = rules.map(|_| Obs::recording());
        let baseline = job.baseline(baseline_obs.clone().unwrap_or_else(Obs::disabled));
        let span = baseline.span;

        // Crash coverage: the first two trials force one worker crash and
        // one master crash; later trials sample freely.
        let (want_node, want_master) = match index {
            0 => (true, false),
            1 => (false, true),
            _ => match s.below(4) {
                0 => (true, false),
                1 => (false, true),
                2 => (true, true),
                _ => (false, false),
            },
        };
        let mut plan = FaultPlan::seeded(cfg.seed ^ index as u64);
        let (node_crashes, master_crashes) = (usize::from(want_node), usize::from(want_master));
        if want_node {
            // Any rank may die — the runtime has no irreplaceable worker.
            // Crash mid-run so at least one boundary precedes and follows it.
            let victim = s.below(nodes as u64) as usize;
            plan = plan.crash_node(victim, (0.25 + 0.4 * s.unit()) * span);
        }
        if want_master {
            plan = plan.crash_master((0.3 + 0.4 * s.unit()) * span);
        }
        if speculation {
            // A straggler window makes the backup volley meaningful on
            // some trials; speculation must stay correct either way.
            let victim = s.below(nodes as u64) as usize;
            plan = plan.slow_cpu(victim, 0.0, span, 2.0 + 2.0 * s.unit());
        }
        let truth = rules.map(|_| ground_truth_from_plan(&plan));

        // Recorded trials shadow the bus rather than trimming it: the
        // flow-conservation invariant and the watchdog's cursor both
        // read the full event history after the run.
        let obs = match watch {
            ChaosWatch::Recorded(_) => {
                Obs::recording_with_recorder(obs::RecorderConfig::enabled(), false)
            }
            _ => Obs::recording(),
        };
        let run = job.run(&baseline, checkpoint_interval, plan, MembershipPlan::default(), &obs);
        let rec = run.outcome.metrics.recovery;
        if let (Some(rules), Some(truth), Some(baseline_obs)) = (rules, truth, &baseline_obs) {
            let (trial, recording) =
                watch_trial(index, rules, truth, &obs, baseline_obs, &run.outcome);
            watched.push(trial);
            recordings.extend(recording);
        }
        trials.push(ChaosTrial {
            index,
            nodes,
            items,
            keys,
            iterations,
            dynamic,
            checkpoint_interval,
            speculation,
            node_crashes,
            master_crashes,
            epochs: run.outcome.attempts.len(),
            recovery: rec,
            result_identical: run.result_identical,
            flow_conserved: run.flow_conserved,
            speculation_reconciled: rec.speculation_reconciles(),
            counters_consistent: rec.restores == rec.node_crashes + rec.master_failovers
                && run.outcome.attempts.len() as u64 == rec.restores + 1,
            clock_monotone: run.clock_monotone,
        });
    }
    let score = rules.map(|_| score_trials(cfg.seed, &watched));
    (ChaosReport { seed: cfg.seed, trials }, score, recordings)
}

/// Scores one chaotic run: the watchdog's verdict over the run's bus and
/// over its fault-free baseline's, joined against the plan's ground
/// truth. When the run's recorder is armed, also captures its incidents
/// into the trial's [`TrialRecording`].
fn watch_trial(
    index: usize,
    rules: &WatchConfig,
    mut truth: Vec<GroundTruthFault>,
    obs: &Obs,
    baseline_obs: &Obs,
    outcome: &ElasticOutcome<u64>,
) -> (TrialWatch, Option<TrialRecording>) {
    // No detector can — or should — see a crash that never fired.
    let rec = &outcome.metrics.recovery;
    retain_fired(&mut truth, FaultKind::NodeCrash, rec.node_crashes as usize);
    retain_fired(&mut truth, FaultKind::MasterCrash, rec.master_failovers as usize);
    let mut chaotic = watch_bus(obs, rules);
    let recording = obs.recorder.is_enabled().then(|| {
        let frames = obs::FrameSet::from_stack(&obs.stack);
        let (captures, postmortem) =
            watch::capture_postmortem(&mut chaotic, &obs.recorder, &obs.audit.records(), &frames);
        TrialRecording {
            index,
            captures,
            postmortem,
            recorder: obs.recorder.summary(),
            total_virtual_secs: outcome.total_virtual_secs,
            incidents_jsonl: chaotic
                .incidents
                .iter()
                .map(|i| i.to_value().to_json_string() + "\n")
                .collect(),
            decisions_jsonl: obs.audit.to_jsonl(),
            stacks_jsonl: frames.to_stacks_jsonl(),
        }
    });
    let healthy = watch_bus(baseline_obs, rules);
    let trial = TrialWatch {
        index,
        faults: truth,
        chaotic_alerts: chaotic.alerts.len(),
        fault_free_alerts: healthy.alerts.len(),
        incidents: chaotic.incidents,
    };
    (trial, recording)
}

/// The clock invariant both grids assert: epoch base times strictly
/// increase, no epoch ends before it starts, the last one ends at the
/// run's total, and the size trace's timestamps never run backwards.
fn epoch_clock_monotone(out: &ElasticOutcome<u64>) -> bool {
    let epochs = &out.attempts;
    epochs.windows(2).all(|w| w[1].base_secs > w[0].base_secs)
        && epochs.iter().all(|a| a.end_secs >= a.base_secs)
        && epochs
            .last()
            .is_some_and(|a| a.end_secs == out.total_virtual_secs)
        && out.cluster_sizes.windows(2).all(|w| w[1].0 >= w[0].0)
}

/// One churn trial: the sampled shape, the injected membership plan and
/// crash faults, and the elastic invariant verdicts. Extends the base
/// chaos grid with churn×fault coverage: the same derived-seed
/// discipline, but the run goes through [`run_epochs`] with a
/// sampled [`MembershipPlan`] alongside (sometimes) a crash plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTrial {
    /// Trial index within the run.
    pub index: usize,
    /// Initial node count sampled for this trial.
    pub nodes: usize,
    /// Input items.
    pub items: usize,
    /// Distinct reduce keys.
    pub keys: usize,
    /// Iteration cap.
    pub iterations: usize,
    /// True when the trial used dynamic (polling) scheduling.
    pub dynamic: bool,
    /// Checkpoint cadence (iterations).
    pub checkpoint_interval: usize,
    /// Nodes the plan admits via scale-out.
    pub planned_joins: usize,
    /// Graceful drains scheduled.
    pub planned_drains: usize,
    /// Forced evictions scheduled.
    pub planned_evicts: usize,
    /// Worker-node crashes injected alongside the churn.
    pub node_crashes: usize,
    /// Master crashes injected alongside the churn.
    pub master_crashes: usize,
    /// Epochs the epoch driver ran (1 = nothing fired).
    pub epochs: usize,
    /// The membership state machine's ledger for the run.
    pub membership: MembershipCounters,
    /// Merged recovery counters of the churned run.
    pub recovery: RecoveryCounters,
    /// Invariant 1: outputs and final model state match the fixed-cluster
    /// fault-free baseline (the app's reduce is partition-invariant, so
    /// any cluster-size history must converge to the same bits).
    pub result_identical: bool,
    /// Invariant 2: per-flow send/recv counts balance on the event bus.
    pub flow_conserved: bool,
    /// Invariant 3: every membership counter matches the epoch
    /// dispositions that actually fired, and restores reconcile with
    /// rollback-causing departures.
    pub ledger_reconciled: bool,
    /// Invariant 4: the cluster-size trace conserves node count
    /// (initial + joins − drains − evictions − handoffs − crashes).
    pub size_conserved: bool,
    /// Invariant 5: epoch base times strictly increase and the size
    /// trace's timestamps never run backwards.
    pub clock_monotone: bool,
}

impl ChurnTrial {
    /// All invariants hold.
    pub fn passed(&self) -> bool {
        self.result_identical
            && self.flow_conserved
            && self.ledger_reconciled
            && self.size_conserved
            && self.clock_monotone
    }
}

/// The full churn chaos run: every trial plus coverage aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// Root seed the grid derives from.
    pub seed: u64,
    /// Per-trial records, in index order.
    pub trials: Vec<ChurnTrial>,
}

impl ChurnReport {
    /// Trials that scheduled at least one scale-out.
    pub fn scale_out_trials(&self) -> usize {
        self.trials.iter().filter(|t| t.planned_joins > 0).count()
    }

    /// Trials that scheduled at least one graceful drain.
    pub fn drain_trials(&self) -> usize {
        self.trials.iter().filter(|t| t.planned_drains > 0).count()
    }

    /// Trials that scheduled at least one forced eviction.
    pub fn evict_trials(&self) -> usize {
        self.trials.iter().filter(|t| t.planned_evicts > 0).count()
    }

    /// Trials that composed churn with at least one crash.
    pub fn crash_trials(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.node_crashes + t.master_crashes > 0)
            .count()
    }

    /// Drain deadlines that blew and took the checkpoint-handoff path.
    pub fn handoffs_total(&self) -> u64 {
        self.trials.iter().map(|t| t.membership.handoffs).sum()
    }

    /// Trials with at least one invariant violated.
    pub fn failures(&self) -> usize {
        self.trials.iter().filter(|t| !t.passed()).count()
    }

    /// Every trial passed every invariant.
    pub fn all_passed(&self) -> bool {
        self.failures() == 0
    }

    /// Deterministic JSON rendering (same contract as
    /// [`ChaosReport::to_json`]: a pure function of `(trials, seed)`,
    /// byte-identical whatever engine ran the grid).
    pub fn to_json(&self) -> Value {
        json!({
            "seed": self.seed,
            "trials": self.trials.len(),
            "scale_out_trials": self.scale_out_trials(),
            "drain_trials": self.drain_trials(),
            "evict_trials": self.evict_trials(),
            "crash_trials": self.crash_trials(),
            "handoffs_total": self.handoffs_total(),
            "failures": self.failures(),
            "all_passed": self.all_passed(),
            "results": self.trials.iter().map(|t| json!({
                "index": t.index,
                "nodes": t.nodes,
                "items": t.items,
                "keys": t.keys,
                "iterations": t.iterations,
                "scheduling": if t.dynamic { "dynamic" } else { "static" },
                "checkpoint_interval": t.checkpoint_interval,
                "planned_joins": t.planned_joins,
                "planned_drains": t.planned_drains,
                "planned_evicts": t.planned_evicts,
                "node_crashes": t.node_crashes,
                "master_crashes": t.master_crashes,
                "epochs": t.epochs,
                "joins": t.membership.joins,
                "join_retries": t.membership.join_retries,
                "drains": t.membership.drains,
                "evictions": t.membership.evictions,
                "handoffs": t.membership.handoffs,
                "secs_waiting_joins": t.membership.secs_waiting_joins,
                "checkpoints_written": t.recovery.checkpoints_written,
                "restores": t.recovery.restores,
                "result_identical": t.result_identical,
                "flow_conserved": t.flow_conserved,
                "ledger_reconciled": t.ledger_reconciled,
                "size_conserved": t.size_conserved,
                "clock_monotone": t.clock_monotone,
                "passed": t.passed(),
            })).collect::<Vec<_>>(),
        })
    }
}

/// Runs the churn chaos grid: every trial runs the chaos app through
/// the epoch driver with a seeded [`MembershipPlan`] (scale-out,
/// drain, and evict events inside the fault-free span), and a sampled
/// subset of trials composes the churn with worker/master crashes.
/// Trial 0 always forces the hardest composition — a crash landing
/// mid-drain, which must cancel the pending drain and recover through
/// the checkpoint. Like [`run_chaos`], the report is a pure function of
/// `(trials, seed)` and invariant violations are recorded, not panicked.
pub fn run_chaos_churn(cfg: &ChaosConfig) -> ChurnReport {
    let mut trials = Vec::new();
    for index in 0..cfg.trials {
        // Salted so a churn trial never replays its fault-grid sibling's
        // draws.
        let mut s = Draws::new(cfg.seed, index, 0x6368_7572_6e21_0001);
        // Trial 0 pins three nodes so a drain and a crash can coexist
        // under the survivor check; later trials sample freely.
        let nodes = if index == 0 { 3 } else { 2 + s.below(2) as usize };
        let items = 64 + 32 * s.below(4) as usize;
        let keys = 3 + s.below(3) as usize;
        let iterations = 5 + s.below(3) as usize;
        let dynamic = s.below(2) == 1;
        let checkpoint_interval = 1 + s.below(2) as usize;
        let config = TrialJob::config(dynamic, iterations, cfg.engine);
        let job = TrialJob { nodes, items, keys, converge_round: 0, config };
        let baseline = job.baseline(Obs::disabled());
        let span = baseline.span;

        let mut mplan = MembershipPlan::seeded(cfg.seed ^ index as u64);
        let mut plan = FaultPlan::seeded(cfg.seed ^ index as u64);
        let mut node_crashes = 0;
        let mut master_crashes = 0;
        // Distinct-victim pool: a node leaves at most once per trial.
        let mut pool: Vec<usize> = (0..nodes).collect();

        if index == 0 {
            // Forced crash-mid-drain: the node dies at the very instant
            // its drain is scheduled. The crash-abort check runs before
            // the graceful-pause check at every boundary, so whatever
            // boundary first reaches the instant sees the crash, cancels
            // the pending drain, and recovers via the checkpoint.
            let victim = s.pick(&mut pool);
            let at = 0.45 * span;
            mplan = mplan.drain(victim, at, span);
            plan = plan.crash_node(victim, at);
            node_crashes += 1;
        } else {
            if s.below(2) == 0 {
                mplan = mplan.scale_out(1, (0.2 + 0.3 * s.unit()) * span);
            }
            // At least one initial node must survive every removal, and
            // the driver counts drains, evicts, and crashes against the
            // same survivor budget.
            let mut budget = nodes - 1;
            if budget > 0 && s.below(2) == 0 {
                let deadline = if s.below(4) == 0 { 0.0 } else { span };
                mplan = mplan.drain(s.pick(&mut pool), (0.25 + 0.35 * s.unit()) * span, deadline);
                budget -= 1;
            }
            if budget > 0 && s.below(2) == 0 {
                mplan = mplan.evict(s.pick(&mut pool), (0.3 + 0.4 * s.unit()) * span);
                budget -= 1;
            }
            if budget > 0 && s.below(3) == 0 {
                plan = plan.crash_node(s.pick(&mut pool), (0.25 + 0.4 * s.unit()) * span);
                node_crashes += 1;
            }
            if s.below(4) == 0 {
                plan = plan.crash_master((0.3 + 0.4 * s.unit()) * span);
                master_crashes += 1;
            }
        }

        let planned_joins = mplan.total_scale_out();
        let planned_drains = mplan.drains.len();
        let planned_evicts = mplan.evicts.len();
        let obs = Obs::recording();
        let run = job.run(&baseline, checkpoint_interval, plan, mplan, &obs);
        let (ledger_reconciled, size_conserved) = churn_ledger(nodes, &run.outcome);
        trials.push(ChurnTrial {
            index,
            nodes,
            items,
            keys,
            iterations,
            dynamic,
            checkpoint_interval,
            planned_joins,
            planned_drains,
            planned_evicts,
            node_crashes,
            master_crashes,
            epochs: run.outcome.attempts.len(),
            membership: run.outcome.membership,
            recovery: run.outcome.metrics.recovery,
            result_identical: run.result_identical,
            flow_conserved: run.flow_conserved,
            ledger_reconciled,
            size_conserved,
            clock_monotone: run.clock_monotone,
        });
    }
    ChurnReport {
        seed: cfg.seed,
        trials,
    }
}

/// The churn grid's own two invariants over an elastic run that started
/// on `nodes` nodes: the membership ledger reconciles with the epoch
/// dispositions that fired, and the cluster-size trace conserves node
/// count.
fn churn_ledger(nodes: usize, outcome: &ElasticOutcome<u64>) -> (bool, bool) {
    let mem = &outcome.membership;
    let rec = &outcome.metrics.recovery;
    let disp = |name: &str| {
        let fired = outcome.attempts.iter().filter(|a| a.disposition == name);
        fired.count() as u64
    };
    // An event scheduled past the job's (possibly shortened) end never
    // fires, so the ledger reconciles against dispositions that actually
    // happened, never against the plan.
    let ledger_reconciled = mem.drains == disp(kinds::DRAIN)
        && mem.evictions == disp(kinds::EVICT)
        && mem.handoffs == disp(kinds::HANDOFF)
        && mem.joins == disp("scale-out")
        && rec.node_crashes == disp(kinds::NODE_CRASH)
        && rec.master_failovers == disp(kinds::MASTER_FAILOVER)
        && rec.restores == rec.node_crashes + rec.master_failovers + mem.evictions + mem.handoffs
        && disp("completed") == 1
        && outcome
            .attempts
            .last()
            .is_some_and(|a| a.disposition == "completed");
    let expected_size = nodes + mem.joins as usize
        - (mem.drains + mem.evictions + mem.handoffs + rec.node_crashes) as usize;
    let size_conserved = outcome
        .cluster_sizes
        .last()
        .is_some_and(|&(_, n)| n == expected_size)
        && outcome.cluster_sizes.iter().all(|&(_, n)| n >= 1)
        && outcome.cluster_sizes.len() as u64
            == 1 + disp("scale-out")
                + disp(kinds::DRAIN)
                + disp(kinds::EVICT)
                + disp(kinds::HANDOFF)
                + disp(kinds::NODE_CRASH);
    (ledger_reconciled, size_conserved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid_passes_all_invariants() {
        let cfg = ChaosConfig { trials: 4, seed: 11, ..Default::default() };
        let report = run_chaos(&cfg, ChaosWatch::Off).0;
        assert_eq!(report.trials.len(), 4);
        assert!(report.worker_crash_trials() >= 1);
        assert!(report.master_crash_trials() >= 1);
        for t in &report.trials {
            assert!(
                t.passed(),
                "trial {} violated an invariant: {t:?}",
                t.index
            );
        }
    }

    #[test]
    fn report_is_deterministic() {
        let cfg = ChaosConfig { trials: 3, seed: 42, ..Default::default() };
        let a = run_chaos(&cfg, ChaosWatch::Off).0.to_json().to_string();
        let b = run_chaos(&cfg, ChaosWatch::Off).0.to_json().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn json_report_reconciles_speculation() {
        let cfg = ChaosConfig { trials: 6, seed: 5, ..Default::default() };
        let report = run_chaos(&cfg, ChaosWatch::Off).0;
        let v = report.to_json();
        assert_eq!(v["speculation_reconciles"], serde_json::json!(true));
        let (l, w, x) = report.speculation_totals();
        assert_eq!(l, w + x);
    }

    #[test]
    fn churn_grid_passes_all_invariants() {
        let report = run_chaos_churn(&ChaosConfig { trials: 8, seed: 7, ..Default::default() });
        assert_eq!(report.trials.len(), 8);
        for t in &report.trials {
            assert!(t.passed(), "churn trial {} violated an invariant: {t:?}", t.index);
        }
        // Coverage: the sampled grid must exercise every churn kind and
        // compose churn with crashes at least once.
        assert!(report.scale_out_trials() >= 1);
        assert!(report.drain_trials() >= 1);
        assert!(report.evict_trials() >= 1);
        assert!(report.crash_trials() >= 1);
    }

    #[test]
    fn churn_trial_zero_forces_crash_mid_drain() {
        let report = run_chaos_churn(&ChaosConfig { trials: 1, seed: 7, ..Default::default() });
        let t = &report.trials[0];
        assert!(t.passed(), "trial 0 violated an invariant: {t:?}");
        // The drain was scheduled but the crash landed first and
        // cancelled it: recovery went through the checkpoint path and
        // the membership ledger records no drain.
        assert_eq!(t.planned_drains, 1);
        assert_eq!(t.node_crashes, 1);
        assert_eq!(t.membership.drains, 0);
        assert_eq!(t.recovery.node_crashes, 1);
        assert_eq!(t.recovery.restores, 1);
        assert!(t.epochs >= 2);
    }

    #[test]
    fn churn_report_is_deterministic() {
        let cfg = ChaosConfig { trials: 4, seed: 42, ..Default::default() };
        let a = run_chaos_churn(&cfg).to_json().to_string();
        let b = run_chaos_churn(&cfg).to_json().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_app_state_round_trips() {
        let app = ChaosApp::new(10, 2, 0);
        app.update(&[(0, 7), (1, 9)]);
        let bytes = app.save_state();
        let fresh = ChaosApp::new(10, 2, 0);
        fresh.restore_state(&bytes);
        assert_eq!(fresh.save_state(), bytes);
        assert_eq!(app.cpu_map(0, 0..4), fresh.cpu_map(0, 0..4));
    }
}
