//! The traced pass: the same command list with a span around every
//! child, the twins that isolate one layer's cost (observed vs plain,
//! other engines, unpinned), and the in-process probes.

use crate::child::{self, ChildRun, Cmd, Cpus, Pin};
use crate::e2e::{repetition, setup_cycle, Repetition};
use crate::metrics::Values;
use crate::parse;
use crate::probes::{self, Sizes};
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{
    check_crossover, check_grid_report, check_repeats, check_table5, Ops, Plan, Variant,
};
use std::path::PathBuf;

/// Plain/traced repetition pairs; the pass is sized by work, not by the
/// `--seconds` window.
const TRACE_PAIRS: usize = 2;
/// Chaos and churn trials of the grid probe on workloads that are not
/// the grid workload.
const PROBE_TRIALS: u32 = 8;
/// Samples of the sub-50 ms children (`prs profiles`, the smallest job).
const SMALL_CHILD_SAMPLES: usize = 5;

pub struct Traced {
    pub values: Values,
    pub ops: Ops,
    pub tracer: Tracer,
}

/// Runs one child inside a span called `name`; a non-zero exit or a
/// spawn failure is a failed operation.
fn spawn(
    t: &mut Tracer,
    name: &str,
    cmd: &Cmd,
    plan: &Plan,
    cpus: &Cpus,
    ops: &mut Ops,
) -> Option<ChildRun> {
    let log = plan.path("logs").join(name);
    match t.span(name, |_| child::run(cmd, cpus, Pin::One, &log, false)) {
        Ok(run) => {
            ops.check(run.exit_code == 0, || {
                format!("{name}: exit code {}", run.exit_code)
            });
            Some(run)
        }
        Err(e) => {
            ops.check(false, || {
                format!("{name}: cannot run {}: {e}", cmd.program.display())
            });
            None
        }
    }
}

fn median_or_nan(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        median(samples)
    }
}

pub fn measure(plan: &Plan, cpus: &Cpus, build_s: f64) -> Traced {
    let w = plan.workload;
    let mut t = Tracer::new(w.name);
    let mut ops = Ops::default();
    let mut v = Values::new();
    let steps = plan.steps();

    let reference = t
        .span("harness.warmup", |_| setup_cycle(plan, cpus, &mut ops))
        .outputs;

    // The same repetition with and without spans + thread sampling.
    let mut plain: Vec<Repetition> = Vec::new();
    let mut traced: Vec<Repetition> = Vec::new();
    for _ in 0..TRACE_PAIRS {
        plain.push(t.span("harness.plain_rep", |_| {
            repetition(plan, &steps, cpus, Pin::One, &mut ops, None)
        }));
        traced.push(t.span("harness.traced_rep", |t| {
            repetition(plan, &steps, cpus, Pin::One, &mut ops, Some(t))
        }));
    }
    for rep in plain.iter().chain(&traced) {
        check_repeats(&reference, &rep.outputs, &mut ops);
    }
    let walls = |reps: &[Repetition]| -> Vec<f64> { reps.iter().map(|r| r.wall_s).collect() };
    let plain_wall = median(&walls(&plain));
    v.insert(
        "trace_overhead_pct".into(),
        (median(&walls(&traced)) / plain_wall - 1.0) * 100.0,
    );

    // One repetition free to use every allowed CPU: what pinning removes.
    let unpinned = t.span("harness.unpinned_rep", |_| {
        repetition(plan, &steps, cpus, Pin::All, &mut ops, None)
    });
    check_repeats(&reference, &unpinned.outputs, &mut ops);
    v.insert(
        "simtime.cross_core_penalty_ratio".into(),
        unpinned.wall_s / plain_wall,
    );

    // The job as the workload runs it, from the traced repetitions.
    let jobs: Vec<&ChildRun> = traced.iter().filter_map(Repetition::job).collect();
    let run_s = median_or_nan(&jobs.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let sum_children = |f: fn(&ChildRun) -> f64| -> Vec<f64> {
        traced
            .iter()
            .map(|r| r.children.iter().map(|(_, c)| f(c)).sum())
            .collect()
    };
    v.insert("cli.run_s".into(), run_s);
    v.insert("cli.cpu_user_s".into(), median(&sum_children(|c| c.user_s)));
    v.insert("cli.cpu_sys_s".into(), median(&sum_children(|c| c.sys_s)));

    // Its twin on the other side of `--obs --record`, and the analyzer
    // chain over whichever bundle exists.
    let bundle: PathBuf;
    let (plain_run_s, observed_run_s);
    if w.observed {
        bundle = plan.path("obs");
        let twin = spawn(
            &mut t,
            "cli.run_plain",
            &plan.job_cmd(Variant::Plain),
            plan,
            cpus,
            &mut ops,
        );
        plain_run_s = twin.map_or(f64::NAN, |c| c.wall_s);
        observed_run_s = run_s;
    } else {
        bundle = plan.path("twin");
        let twin = spawn(
            &mut t,
            "cli.run_observed",
            &plan.job_cmd(Variant::Observed(&bundle)),
            plan,
            cpus,
            &mut ops,
        );
        for step in plan.analyzer_steps(&bundle) {
            spawn(&mut t, step.role.span(), &step.cmd, plan, cpus, &mut ops);
        }
        plain_run_s = run_s;
        observed_run_s = twin.map_or(f64::NAN, |c| c.wall_s);
    }
    v.insert(
        "obs.attach_overhead_ratio".into(),
        observed_run_s / plain_run_s,
    );
    for name in ["analyze", "watch", "profile", "top", "calibrate"] {
        v.insert(
            format!("cli.{name}_s"),
            median_or_nan(&t.durations_s(&format!("cli.{name}"))),
        );
    }
    match parse::hash_dir(&bundle) {
        Ok(files) => {
            let bytes: u64 = files.values().map(|(_, bytes)| bytes).sum();
            v.insert("obs.bundle_mb".into(), bytes as f64 / 1048576.0);
        }
        Err(e) => {
            ops.check(false, || e);
        }
    }

    // The same job under the other engines: one repetition each, and the
    // `--json` document must not differ by a byte.
    for mode in ["legacy", "parallel"] {
        let name = format!("cli.run_{mode}");
        let run = spawn(
            &mut t,
            &name,
            &plan.job_cmd(Variant::Engine(mode)),
            plan,
            cpus,
            &mut ops,
        );
        if let Some(run) = &run {
            let same =
                reference.facts.get("run.stdout") == Some(&parse::fnv1a(run.stdout.as_bytes()));
            ops.check(same, || {
                format!("{name}: --json differs from the calendar engine's")
            });
        }
        v.insert(
            format!("simtime.engine_{mode}_wall_s"),
            run.map_or(f64::NAN, |c| c.wall_s),
        );
    }

    // Per-job fixed cost: process start alone, and the smallest job.
    let smallest = [
        "run",
        "--app",
        "cmeans",
        "--nodes",
        "2",
        "--profile",
        "micro",
        "--points",
        "64",
        "--dims",
        "2",
        "--clusters",
        "2",
        "--iterations",
        "1",
        "--seed",
        &plan.child_seed.to_string(),
        "--json",
    ];
    for _ in 0..SMALL_CHILD_SAMPLES {
        spawn(
            &mut t,
            "cli.startup",
            &plan.prs(vec!["profiles".into()]),
            plan,
            cpus,
            &mut ops,
        );
        let args = smallest.iter().map(|s| s.to_string()).collect();
        spawn(
            &mut t,
            "cli.run_smallest",
            &plan.prs(args),
            plan,
            cpus,
            &mut ops,
        );
    }
    v.insert(
        "cli.startup_ms".into(),
        median_or_nan(&t.durations_s("cli.startup")) * 1e3,
    );
    v.insert(
        "core.job_fixed_cost_ms".into(),
        median_or_nan(&t.durations_s("cli.run_smallest")) * 1e3,
    );

    // Chaos/churn grids and the Table-5 / crossover binaries: the grid
    // workload ran them in its own repetitions, the others run a small
    // probe of them here.
    let trials = match w.grid_trials {
        Some(trials) => trials,
        None => {
            let probe = plan.grid_steps(PROBE_TRIALS, false);
            t.span("harness.grid_probe", |t| {
                repetition(plan, &probe, cpus, Pin::One, &mut ops, Some(t))
            });
            PROBE_TRIALS
        }
    };
    let chaos = check_grid_report(&plan.path("chaos_report.json"), &mut ops).unwrap_or_default();
    let churn = check_grid_report(&plan.path("churn_report.json"), &mut ops).unwrap_or_default();
    v.insert(
        "core.chaos_trials_per_s".into(),
        f64::from(trials) / median_or_nan(&t.durations_s("cli.chaos")),
    );
    v.insert(
        "core.churn_trials_per_s".into(),
        f64::from(trials) / median_or_nan(&t.durations_s("cli.churn")),
    );
    v.insert(
        "core.invariant_failures".into(),
        (chaos.failures + churn.failures) as f64,
    );
    v.insert(
        "core.restores".into(),
        (chaos.restores + churn.restores) as f64,
    );
    v.insert(
        "core.checkpoints_written".into(),
        (chaos.checkpoints_written + churn.checkpoints_written) as f64,
    );
    // Useful over attempted speculative launches.
    v.insert(
        "core.speculative_won_ratio".into(),
        chaos.speculative_won as f64 / chaos.speculative_launched.max(1) as f64,
    );
    if let Some(worst) = check_table5(&plan.experiment_json("table5"), &mut ops) {
        v.insert("roofline.eq8_p_error_pts_max".into(), worst);
    }
    if let Some((_, benefit_min)) =
        check_crossover(&plan.experiment_json("expt_crossover"), &mut ops)
    {
        v.insert("roofline.crossover_benefit_min".into(), benefit_min);
    }
    let table5_runs = t.durations_s("bench.table5");
    v.insert("bench.table5_s".into(), median_or_nan(&table5_runs));
    v.insert(
        "bench.expt_s".into(),
        t.total_s("bench.expt") / table5_runs.len().max(1) as f64,
    );

    // In-process probes, sized from what the job reported.
    if let Some(run) = &reference.run {
        let events = run.sim_events as f64;
        v.insert("simtime.events".into(), events);
        t.counts.insert("simtime.events".into(), events);
        v.insert("simtime.events_per_s".into(), events / run_s);
        v.insert("simtime.host_us_per_event".into(), run_s * 1e6 / events);
        let threads = jobs.iter().filter_map(|c| c.peak_threads).max();
        v.insert(
            "simtime.peak_threads".into(),
            threads.map_or(f64::NAN, |n| n as f64),
        );
        let switches: Vec<f64> = jobs.iter().map(|c| c.ctx_switches as f64).collect();
        v.insert(
            "simtime.ctx_switches_per_event".into(),
            median_or_nan(&switches) / events,
        );
        v.insert(
            "device.setup_share".into(),
            run.setup_seconds / run.makespan(),
        );
        v.insert("core.cpu_fraction".into(), run.cpu_share());

        let sizes = Sizes {
            job: w.job,
            points: plan.points,
            seed: plan.child_seed,
            cpu_fraction: run.cpu_share(),
            sim_events: run.sim_events,
        };
        if let Err(e) = probes::bundle_probes(&mut t, &bundle, &sizes, &mut ops, &mut v) {
            ops.check(false, || e);
        }
        let count = |v: &Values, name: &str| v.get(name).copied().unwrap_or(0.0);
        let launches = (count(&v, "device.kernels") + count(&v, "device.cpu_tasks")) as u64;
        let bus_events = count(&v, "obs.events") as u64;
        probes::layer_probes(&mut t, &sizes, launches, bus_events, &mut v);
        probes::app_probes(&mut t, &sizes, &mut ops, &mut v);
        // What is left of the plain job once generation and kernels are
        // taken out: an estimate, the two were timed in another process.
        let est = plain_run_s - count(&v, "data.generate_s") - count(&v, "apps.kernel_s");
        v.insert("core.runtime_est_s".into(), est);
    }

    v.insert("build_s".into(), build_s);
    v.insert("ops_attempted".into(), ops.attempted as f64);
    v.insert("ops_failed_share".into(), ops.failed_share());
    Traced {
        values: v,
        ops,
        tracer: t,
    }
}
