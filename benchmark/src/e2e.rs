//! The untraced pass: set-up cycles, then timed repetitions of a
//! workload's command list, one pinned child at a time.

use crate::child::{self, ChildRun, Cpus, Pin};
use crate::metrics::Values;
use crate::parse::proc_status_field;
use crate::span::Tracer;
use crate::stats::{self, Summary};
use crate::workload::{check_repeats, Ops, Outputs, Plan, Role, Step};
use std::time::Instant;

/// A set-up cycle wipes the output directory, regenerates the inputs
/// and runs one warm-up repetition. It is repeated so `setup_s` is a
/// median, not a single sample.
const SETUP_CYCLES: usize = 3;
/// Fewer timed repetitions than this make no median.
const MIN_REPETITIONS: usize = 3;

/// One run through a workload's command list.
#[derive(Debug, Clone)]
pub struct Repetition {
    /// Summed child wall seconds, spawn to exit.
    pub wall_s: f64,
    pub children: Vec<(Role, ChildRun)>,
    pub outputs: Outputs,
}

impl Repetition {
    /// The workload's `prs run` child.
    pub fn job(&self) -> Option<&ChildRun> {
        self.children
            .iter()
            .find(|(role, _)| *role == Role::Run)
            .map(|(_, c)| c)
    }

    pub fn peak_rss_kib(&self) -> u64 {
        self.children
            .iter()
            .map(|(_, c)| c.maxrss_kib)
            .max()
            .unwrap_or(0)
    }
}

/// Runs `steps` in order, checks each child's outputs, and fingerprints
/// the artifacts. With a tracer each child gets a span and its thread
/// count is sampled. An unspawnable child is a failed operation with
/// zero time, so the run still ends with a result a reader can act on.
pub fn repetition(
    plan: &Plan,
    steps: &[Step],
    cpus: &Cpus,
    pin: Pin,
    ops: &mut Ops,
    mut tracer: Option<&mut Tracer>,
) -> Repetition {
    let mut rep = Repetition {
        wall_s: 0.0,
        children: Vec::new(),
        outputs: Outputs::default(),
    };
    for (i, step) in steps.iter().enumerate() {
        let name = step.role.span();
        let log = plan.path("logs").join(format!("{i:02}-{name}"));
        let spawn = |sampled| child::run(&step.cmd, cpus, pin, &log, sampled);
        let result = match tracer.as_deref_mut() {
            Some(t) => t.span(name, |_| spawn(true)),
            None => spawn(false),
        };
        match result {
            Ok(run) => {
                plan.check_step(step, &run, ops, &mut rep.outputs);
                rep.wall_s += run.wall_s;
                rep.children.push((step.role, run));
            }
            Err(e) => {
                ops.check(false, || {
                    format!("{name}: cannot run {}: {e}", step.cmd.program.display())
                });
            }
        }
    }
    plan.fingerprint_artifacts(ops, &mut rep.outputs);
    rep
}

/// One set-up cycle; returns the warm-up repetition.
pub fn setup_cycle(plan: &Plan, cpus: &Cpus, ops: &mut Ops) -> Repetition {
    if let Err(e) = plan.write_inputs() {
        ops.check(false, || e);
    }
    repetition(plan, &plan.steps(), cpus, Pin::One, ops, None)
}

/// Everything the untraced pass measured on one workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub values: Values,
    pub wall: Summary,
    pub setup: Summary,
    pub ops: Ops,
}

/// Set-up cycles, then timed repetitions for `seconds` (at least
/// three), every one compared artifact by artifact with the first.
pub fn measure(plan: &Plan, cpus: &Cpus, seconds: f64) -> EndToEnd {
    let mut ops = Ops::default();

    let mut setup_s = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_CYCLES {
        let t0 = Instant::now();
        let warm = setup_cycle(plan, cpus, &mut ops);
        setup_s.push(t0.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some(warm.outputs),
            Some(first) => check_repeats(first, &warm.outputs, &mut ops),
        }
    }
    let reference = reference.expect("at least one set-up cycle");

    let mut walls = Vec::new();
    let mut peak_rss_kib = 0;
    let steps = plan.steps();
    let window = Instant::now();
    while walls.len() < MIN_REPETITIONS || window.elapsed().as_secs_f64() < seconds {
        let rep = repetition(plan, &steps, cpus, Pin::One, &mut ops, None);
        check_repeats(&reference, &rep.outputs, &mut ops);
        walls.push(rep.wall_s);
        peak_rss_kib = peak_rss_kib.max(rep.peak_rss_kib());
    }

    // A child's `ru_maxrss` starts at the peak RSS of the process that
    // forked it (exec carries the old address space's high-water mark
    // over), so the number is only the child's own while the harness
    // stays smaller than its children.
    let own_peak_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| proc_status_field(&text, "VmHWM"));
    ops.check(own_peak_kib.is_some_and(|own| own < peak_rss_kib), || {
        format!("peak_rss_mb {peak_rss_kib} KiB is not above the harness's own peak {own_peak_kib:?} KiB")
    });

    let wall = stats::summarize(&walls);
    let mut values = Values::new();
    // The fastest repetition, not the median: on this shared 2-core VM
    // interference episodes slow CPU-bound code by 10-60 % for seconds
    // at a time (CPU time tracks wall time, so it is not steal), which
    // moves a median of five by 4-15 % between runs and the minimum by
    // 1.5-4 %. The median and quartiles are printed beside it.
    values.insert("wall_s".into(), wall.min);
    values.insert("peak_rss_mb".into(), peak_rss_kib as f64 / 1024.0);
    values.insert("setup_s".into(), stats::median(&setup_s));
    if let Some(run) = &reference.run {
        values.insert("virtual_makespan_s".into(), run.makespan());
        // On the grid workload the steady-state number also carries the
        // crossover table's co-processing makespans.
        let tables = reference.crossover_combined.unwrap_or(0.0);
        values.insert("virtual_steady_s".into(), run.compute_seconds + tables);
    }
    EndToEnd {
        values,
        wall,
        setup: stats::summarize(&setup_s),
        ops,
    }
}
