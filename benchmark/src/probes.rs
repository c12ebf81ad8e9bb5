//! In-process probes of the traced pass: one span around each call into
//! a layer's public functions, sized from the workload's own counts.
//!
//! The functions called here are the surface listed in the README; a
//! change to them needs a preceding `benchmark` issue.

use crate::metrics::Values;
use crate::parse;
use crate::span::Tracer;
use crate::workload::{App, Job, Ops};
use device::{FatNode, OverheadModel, WorkProfile};
use insight::TraceEvent;
use netsim::{shuffle, CollectiveSeq, Network, NetworkParams, ShuffleItem};
use obs::rollup::{rollup, RollupConfig, RollupEvent};
use obs::{AuditLog, EventBus, FrameSet, MetricsRegistry};
use prs_apps::{serial_cmeans, CMeans, WordCount};
use prs_core::{
    run_iterative, run_job, ClusterSpec, DeviceClass, IterativeApp, JobConfig, Key, SpmdApp,
};
use prs_data::gaussian::clustering_workload;
use prs_data::MatrixF32;
use roofline::profiles::DeviceProfile;
use simtime::stress::{run_hold_baseline, run_stress, StressSpec};
use simtime::{EngineMode, Sim, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Tolerance of the apps' own runtime tests (`crates/apps/tests`).
pub const OUTPUT_TOLERANCE: f64 = 1e-2;

/// Probe sizes are capped so a traced run stays inside its time budget
/// whatever the workload's counts are.
const MAX_PROBE_EVENTS: u64 = 50_000;
const MAX_PROBE_MESSAGES: u64 = 20_000;

/// What the probes need to know about the workload instance.
pub struct Sizes {
    pub job: Job,
    pub points: usize,
    pub seed: u64,
    /// CPU share of the map the job reported (dynamic modes report none).
    pub cpu_fraction: f64,
    pub sim_events: u64,
}

/// The hardware profile `prs run --profile <name>` resolves.
pub fn profile_named(name: &str) -> DeviceProfile {
    prs_cli::parse_profile(name).expect("the workload table names built-in profiles")
}

fn job_config(job: &Job) -> JobConfig {
    let base = match job
        .mode
        .strip_prefix("dynamic:")
        .and_then(|b| b.parse().ok())
    {
        Some(block) => JobConfig::dynamic(block),
        None => JobConfig::static_analytic(),
    };
    base.with_streams(job.streams)
}

/// Maps the whole input once per iteration straight through the app's
/// `cpu_map`/`gpu_map` (split at the job's CPU fraction, one call per
/// node and device), then combines, reduces and updates — the apps'
/// host work with no runtime around it.
fn kernel_probe<A: SpmdApp>(
    t: &mut Tracer,
    app: &A,
    s: &Sizes,
    mut update: impl FnMut(&[(Key, A::Output)]),
) {
    let n = app.num_items();
    let nodes = s.job.nodes;
    for _ in 0..s.job.iterations.max(1) {
        let pairs = t.span("apps.kernel", |_| {
            let mut pairs: Vec<(Key, A::Inter)> = Vec::new();
            for node in 0..nodes {
                let (lo, hi) = (node * n / nodes, (node + 1) * n / nodes);
                let cut = lo + ((hi - lo) as f64 * s.cpu_fraction).round() as usize;
                if cut > lo {
                    pairs.extend(app.cpu_map(node, lo..cut));
                }
                if hi > cut {
                    pairs.extend(app.gpu_map(node, cut..hi));
                }
            }
            pairs
        });
        t.span("apps.reduce", |_| {
            let mut by_key: BTreeMap<Key, Vec<A::Inter>> = BTreeMap::new();
            for (k, v) in pairs {
                by_key.entry(k).or_default().push(v);
            }
            let outputs: Vec<(Key, A::Output)> = by_key
                .into_iter()
                .map(|(k, v)| (k, app.reduce(DeviceClass::Cpu, k, app.combine(k, v))))
                .collect();
            update(black_box(&outputs));
        });
    }
}

/// Largest relative difference between the distributed C-means centers
/// and `serial_cmeans` on the first rows of the workload's own data.
fn cmeans_output_err(points: &MatrixF32, s: &Sizes) -> Result<f64, String> {
    let k = s.job.clusters;
    let sub = Arc::new(points.rows_slice(0, points.rows().min(4096)));
    let iterations = 10;
    let (serial, history) = serial_cmeans(&sub, k, 2.0, 1e-3, s.seed, iterations);
    let app = Arc::new(CMeans::new(sub, k, 2.0, 1e-3, s.seed));
    let spec = ClusterSpec::homogeneous(
        2,
        profile_named(s.job.profile),
        NetworkParams::infiniband_qdr(),
    );
    let result = run_iterative(
        &spec,
        app.clone(),
        job_config(&s.job).with_iterations(iterations),
    )
    .map_err(|e| format!("apps.output: distributed c-means failed: {e}"))?;
    if result.metrics.iterations.len() != history.len() {
        return Err(format!(
            "apps.output: distributed c-means took {} iterations, serial {}",
            result.metrics.iterations.len(),
            history.len()
        ));
    }
    let centers = app.centers();
    let mut worst = 0.0f64;
    for j in 0..k {
        for (a, b) in centers.row(j).iter().zip(serial.row(j)) {
            worst = worst.max(f64::from((a - b).abs()) / f64::from(b.abs()).max(1.0));
        }
    }
    Ok(worst)
}

/// Share of vocabulary entries whose distributed count differs from the
/// serial histogram of the same corpus.
fn wordcount_output_err(s: &Sizes) -> Result<f64, String> {
    let vocab = s.job.clusters as u32 * 100;
    let app = Arc::new(WordCount::synthetic(20_000, vocab, s.seed));
    let spec = ClusterSpec::homogeneous(
        4,
        profile_named(s.job.profile),
        NetworkParams::infiniband_qdr(),
    );
    let result = run_job(&spec, app.clone(), job_config(&s.job))
        .map_err(|e| format!("apps.output: distributed wordcount failed: {e}"))?;
    let mut counted = vec![0u64; vocab as usize];
    for (key, count) in &result.outputs {
        counted[*key as usize] = *count;
    }
    let serial = app.serial_counts();
    let wrong = counted.iter().zip(&serial).filter(|(a, b)| a != b).count();
    Ok(wrong as f64 / f64::from(vocab))
}

/// `data.*`, `apps.*` and `roofline.split_ns` at the workload's size.
pub fn app_probes(t: &mut Tracer, s: &Sizes, ops: &mut Ops, values: &mut Values) {
    let (model_flops, workload, err) = match s.job.app {
        App::Cmeans => {
            let (n, d, k) = (s.points, s.job.dims, s.job.clusters);
            let data = t.span("data.generate", |_| clustering_workload(n, d, k, s.seed));
            let points = Arc::new(data.points);
            let app = CMeans::new(points.clone(), k, 2.0, 1e-3, s.seed);
            kernel_probe(t, &app, s, |outputs| {
                app.update(outputs);
            });
            let flops = app.map_work(n).flops * s.job.iterations as f64;
            (
                flops,
                app.workload(),
                t.span("apps.output", |_| cmeans_output_err(&points, s)),
            )
        }
        App::Wordcount => {
            let vocab = s.job.clusters as u32 * 100;
            let app = t.span("data.generate", |_| {
                WordCount::synthetic(s.points, vocab, s.seed)
            });
            kernel_probe(t, &app, s, |_| {});
            let flops = app.map_work(s.points).flops;
            (
                flops,
                app.workload(),
                t.span("apps.output", |_| wordcount_output_err(s)),
            )
        }
    };
    let generate_s = t.total_s("data.generate");
    let kernel_s = t.total_s("apps.kernel");
    values.insert("data.generate_s".into(), generate_s);
    values.insert(
        "data.generate_mitems_per_s".into(),
        s.points as f64 / 1e6 / generate_s,
    );
    values.insert("apps.kernel_s".into(), kernel_s);
    // Model flops are computed from the app's declared intensity, not counted.
    values.insert(
        "apps.kernel_gflops_host".into(),
        model_flops / 1e9 / kernel_s,
    );
    values.insert("apps.reduce_s".into(), t.total_s("apps.reduce"));
    if let Some(err) = ops.try_get(err) {
        ops.check(err <= OUTPUT_TOLERANCE, || {
            format!("apps.output_rel_err {err} exceeds {OUTPUT_TOLERANCE}")
        });
        values.insert("apps.output_rel_err".into(), err);
    }

    let profile = profile_named(s.job.profile);
    let calls = 200_000u32;
    t.span("roofline.split", |_| {
        for _ in 0..calls {
            black_box(roofline::split(black_box(&profile), black_box(&workload)));
        }
    });
    values.insert(
        "roofline.split_ns".into(),
        t.total_s("roofline.split") * 1e9 / f64::from(calls),
    );
}

/// No-op kernels through one GPU stream and the CPU pool of an isolated
/// fat node; returns launches per host second.
fn device_probe(t: &mut Tracer, profile: &DeviceProfile, launches: u64) -> f64 {
    let node = FatNode::new(0, profile.clone(), OverheadModel::default());
    let work = WorkProfile::from_intensity(1e6, 10.0);
    let cores = u64::from(node.cpu.spec.cores).max(1);
    let per_core = (launches * 2 / 3 / cores).max(1);
    let on_gpu = if node.gpu().is_some() {
        (launches / 3).max(1)
    } else {
        0
    };
    let mut sim = Sim::new();
    if let Some(gpu) = node.gpu().cloned() {
        sim.spawn("probe-gpu-stream", move |ctx| {
            let context = gpu.create_context(ctx);
            let stream = context.stream();
            for _ in 0..on_gpu {
                stream.run_block(ctx, 0, &work, 0, || ());
            }
        });
    }
    for core in 0..cores {
        let cpu = node.cpu.clone();
        sim.spawn(&format!("probe-cpu{core}"), move |ctx| {
            for _ in 0..per_core {
                cpu.run_task_timed(ctx, &work);
            }
        });
    }
    t.span("device.launch_probe", |_| {
        sim.run().expect("device probe cannot deadlock")
    });
    (on_gpu + per_core * cores) as f64 / t.total_s("device.launch_probe")
}

/// `rounds` tree allreduces over `ranks` isolated ranks; returns host
/// microseconds per message (2(ranks-1) messages per allreduce: a
/// binomial reduce then a binomial broadcast — computed, not counted).
fn collective_probe(t: &mut Tracer, ranks: usize) -> f64 {
    let per_round = 2 * (ranks as u64 - 1);
    let rounds = (MAX_PROBE_MESSAGES / per_round).max(1);
    let net = Network::new("probe", ranks, NetworkParams::infiniband_qdr());
    let mut sim = Sim::new();
    for rank in 0..ranks {
        let comm = net.communicator(rank);
        sim.spawn(&format!("r{rank}"), move |ctx| {
            let seq = CollectiveSeq::new();
            let coll = comm.collectives(&seq);
            for _ in 0..rounds {
                black_box(coll.allreduce(ctx, 64, rank as u64, |a, b| a + b));
            }
        });
    }
    t.span("netsim.collective_probe", |_| {
        sim.run().expect("collective probe cannot deadlock")
    });
    t.total_s("netsim.collective_probe") * 1e6 / (rounds * per_round) as f64
}

/// One sparse shuffle of `keys` keyed items per rank over `ranks` ranks.
fn shuffle_probe(t: &mut Tracer, ranks: usize, keys: u64) -> f64 {
    let net = Network::new("probe", ranks, NetworkParams::infiniband_qdr());
    let mut sim = Sim::new();
    for rank in 0..ranks {
        let comm = net.communicator(rank);
        sim.spawn(&format!("r{rank}"), move |ctx| {
            let seq = CollectiveSeq::new();
            let items: Vec<ShuffleItem<u64>> = (0..keys)
                .map(|key| ShuffleItem {
                    bucket: key,
                    bytes: 64,
                    value: key,
                })
                .collect();
            black_box(shuffle(&comm, &seq, ctx, items));
        });
    }
    t.span("netsim.shuffle_probe", |_| {
        sim.run().expect("shuffle probe cannot deadlock")
    });
    t.total_s("netsim.shuffle_probe")
}

/// Isolated `device`, `netsim`, `simtime` and `obs` probes, sized from
/// the workload's node, key, event and launch counts.
pub fn layer_probes(
    t: &mut Tracer,
    s: &Sizes,
    launches: u64,
    bus_events: u64,
    values: &mut Values,
) {
    let profile = profile_named(s.job.profile);
    let ranks = s.job.nodes.max(2);
    let keys = match s.job.app {
        App::Cmeans => s.job.clusters as u64,
        App::Wordcount => s.job.clusters as u64 * 100,
    };
    values.insert(
        "device.launches_per_s".into(),
        device_probe(t, &profile, launches.clamp(1_000, MAX_PROBE_EVENTS / 2)),
    );
    values.insert(
        "netsim.collective_us_per_msg".into(),
        collective_probe(t, ranks),
    );
    values.insert(
        "netsim.shuffle_probe_s".into(),
        shuffle_probe(t, ranks, keys),
    );

    // The thread-handoff event (a process `hold`) against the timer event
    // (an engine-thread callback): the gap ROADMAP item 2 wants to close.
    let target = s.sim_events.clamp(10_000, MAX_PROBE_EVENTS);
    let procs = s.job.nodes.clamp(2, 256);
    let holds = (target as usize / procs).max(1);
    let hold_events = t.span("simtime.hold_probe", |_| {
        run_hold_baseline(EngineMode::Calendar, procs, holds)
    });
    values.insert(
        "simtime.hold_us_per_event".into(),
        t.total_s("simtime.hold_probe") * 1e6 / hold_events as f64,
    );
    let spec = StressSpec {
        nodes: s.job.nodes,
        timers_per_node: (s.sim_events.max(200_000) as usize / (2 * s.job.nodes)).max(1),
        refires: 1,
    };
    let (timer_events, _) = t.span("simtime.timer_probe", |_| {
        run_stress(EngineMode::Calendar, spec)
    });
    values.insert(
        "simtime.timer_us_per_event".into(),
        t.total_s("simtime.timer_probe") * 1e6 / timer_events as f64,
    );

    let bus = EventBus::recording();
    let lanes: Vec<String> = (0..64).map(|i| format!("node{i}-cpu-core0")).collect();
    let emits = bus_events.clamp(10_000, 500_000) as usize;
    t.span("obs.emit_probe", |_| {
        for i in 0..emits {
            let start = SimTime::from_nanos(i as f64);
            if let Some(draft) = bus.span(
                &lanes[i % lanes.len()],
                "cpu-task",
                start,
                start + SimTime::from_nanos(500.0),
            ) {
                draft
                    .iteration(i % 10)
                    .attr("flops", 1e6)
                    .attr("bytes", 4096.0)
                    .commit();
            }
        }
    });
    assert_eq!(bus.len(), emits, "the probe bus records every emit");
    values.insert(
        "obs.emit_ns_per_event".into(),
        t.total_s("obs.emit_probe") * 1e9 / emits as f64,
    );
}

/// Attribute keys of `Event` are `&'static str`; a replayed bundle's are
/// owned. The handful of distinct keys is leaked once per process.
fn static_key(cache: &mut BTreeMap<String, &'static str>, key: &str) -> &'static str {
    if let Some(k) = cache.get(key) {
        return k;
    }
    let leaked: &'static str = Box::leak(key.to_string().into_boxed_str());
    cache.insert(key.to_string(), leaked);
    leaked
}

fn replay(events: &[TraceEvent]) -> EventBus {
    let bus = EventBus::recording();
    let mut keys = BTreeMap::new();
    for e in events {
        let start = SimTime::from_secs_f64(e.t);
        let draft = match e.dur {
            Some(d) => bus.span(&e.lane, &e.kind, start, SimTime::from_secs_f64(e.t + d)),
            None => bus.event(&e.lane, &e.kind, start),
        };
        let Some(mut draft) = draft else { continue };
        if let Some(i) = e.iter {
            draft = draft.iteration(i as usize);
        }
        if let Some(p) = e.part {
            draft = draft.partition(p as usize);
        }
        if let Some(b) = e.block {
            draft = draft.block(b as usize);
        }
        for (k, v) in &e.attrs {
            draft = draft.attr(static_key(&mut keys, k), *v);
        }
        draft.commit();
    }
    bus
}

fn read(bundle: &Path, name: &str) -> Result<String, String> {
    let path = bundle.join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Reads an `--obs` bundle the way the analyzers do, with a span around
/// each library call: `insight.*`, `watch.*`, the `obs.export.*` writers
/// on a bus replayed from the bundle, and the count / virtual-time
/// metrics the bundle carries.
pub fn bundle_probes(
    t: &mut Tracer,
    bundle: &Path,
    s: &Sizes,
    ops: &mut Ops,
    values: &mut Values,
) -> Result<(), String> {
    let text = read(bundle, "events.jsonl")?;
    let events = t.span("insight.parse", |_| insight::parse_events_jsonl(&text))?;
    let analysis = t.span("insight.analyze", |_| insight::analyze(&events));
    t.span("insight.report", |_| {
        black_box(insight::report_json(&analysis));
        black_box(insight::critical_path_json(&analysis));
        black_box(insight::summary_table(&analysis));
    });
    let profile = profile_named(s.job.profile);
    t.span("insight.calibrate", |_| {
        let fitted = insight::fit_from_events(profile.clone(), insight::DEFAULT_ALPHA, &events);
        black_box(insight::profile_toml::to_toml(&fitted));
    });
    let n = events.len() as f64;
    let insight_s =
        t.total_s("insight.parse") + t.total_s("insight.analyze") + t.total_s("insight.report");
    values.insert("insight.parse_s".into(), t.total_s("insight.parse"));
    values.insert("insight.analyze_s".into(), t.total_s("insight.analyze"));
    values.insert("insight.report_s".into(), t.total_s("insight.report"));
    values.insert("insight.calibrate_s".into(), t.total_s("insight.calibrate"));
    values.insert("insight.events_per_s".into(), n / insight_s);

    let decisions = AuditLog::parse_jsonl(&read(bundle, "decisions.jsonl")?);
    let roll_events: Vec<RollupEvent> = events
        .iter()
        .map(|e| RollupEvent {
            t: e.t,
            dur: e.dur,
            lane: e.lane.clone(),
            kind: e.kind.clone(),
            iter: e.iter,
            attrs: e.attrs.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        })
        .collect();
    let verdict = t.span("watch.watch", |_| {
        watch::watch(&roll_events, &decisions, &watch::WatchConfig::default())
    });
    values.insert("watch.watch_s".into(), t.total_s("watch.watch"));
    values.insert("watch.events_per_s".into(), n / t.total_s("watch.watch"));
    values.insert("watch.incidents".into(), verdict.incidents.len() as f64);
    // A planned membership change is not a fault, but it is not a
    // fault-free run either: only fault-free jobs must stay silent.
    if !s.job.membership {
        ops.check(verdict.alerts.is_empty(), || {
            format!(
                "watch: {} alert(s) on a fault-free run",
                verdict.alerts.len()
            )
        });
    }
    values.insert(
        "watch.fault_free_alerts".into(),
        verdict.alerts.len() as f64,
    );

    let bus = t.span("obs.replay", |_| replay(&events));
    let registry = MetricsRegistry::recording();
    let samples = parse::parse_prom(&read(bundle, "metrics.prom")?);
    for sample in &samples {
        let labels: Vec<(&str, &str)> = sample
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        registry.gauge_set(&sample.name, &labels, sample.value);
    }
    let horizon = events
        .iter()
        .map(TraceEvent::end)
        .fold(0.0, f64::max)
        .max(1e-9);
    let stacks = read(bundle, "stacks.jsonl")?;
    let mut exported = 0usize;
    exported += t.span("obs.export.jsonl", |_| bus.to_jsonl().len());
    exported += t.span("obs.export.prometheus", |_| registry.to_prometheus().len());
    exported += t.span("obs.export.rollup", |_| {
        rollup(&roll_events, &decisions, &RollupConfig::auto(horizon))
            .to_jsonl()
            .len()
    });
    exported += t.span("obs.export.profile", |_| -> Result<usize, String> {
        let frames = FrameSet::parse_stacks_jsonl(&stacks)?;
        let profile = obs::profile(&frames, horizon, obs::profile::DEFAULT_PERIOD_S);
        Ok(frames.to_stacks_jsonl().len() + profile.to_folded().len() + profile.to_json().len())
    })?;
    let export_s = t.total_prefix_s("obs.export.");
    values.insert("obs.export_s".into(), export_s);
    values.insert(
        "obs.export_mb_per_s".into(),
        exported as f64 / 1048576.0 / export_s,
    );

    // Counts and virtual seconds the bundle itself carries.
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count() as f64;
    let per_node_vs = |kind: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .map(TraceEvent::duration)
            .sum::<f64>()
            / s.job.nodes as f64
    };
    for (metric, kind) in [
        ("device.kernels", "kernel"),
        ("device.cpu_tasks", "cpu-task"),
        ("device.h2d", "h2d"),
        ("device.d2h", "d2h"),
        ("netsim.msgs", "msg-send"),
    ] {
        values.insert(metric.into(), count(kind));
        t.counts.insert(metric.into(), count(kind));
    }
    for (metric, kind) in [
        ("core.map_vs", "map"),
        ("core.reduce_vs", "reduce"),
        ("netsim.shuffle_vs", "shuffle"),
        ("netsim.update_vs", "update"),
    ] {
        values.insert(metric.into(), per_node_vs(kind));
    }
    values.insert("obs.events".into(), n);
    t.counts.insert("obs.events".into(), n);

    let mean = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let fam = |name: &str, label| parse::family(&samples, name, label);
    values.insert(
        "device.gpu_util".into(),
        mean(fam("prs_device_utilization", Some(("device", "gpu")))),
    );
    values.insert(
        "device.cpu_util".into(),
        mean(fam("prs_device_utilization", Some(("device", "cpu")))),
    );
    values.insert(
        "device.block_wait_vs".into(),
        fam("prs_block_wait_seconds_sum", None).iter().sum(),
    );
    values.insert(
        "device.queue_depth_peak".into(),
        fam("prs_queue_depth_peak", None)
            .into_iter()
            .fold(0.0, f64::max),
    );
    values.insert(
        "netsim.bytes".into(),
        fam("prs_net_bytes_total", None).iter().sum(),
    );
    for (metric, name) in [
        (
            "obs.recorder_retained_peak",
            "prs_recorder_events_retained_peak",
        ),
        ("obs.recorder_folded", "prs_recorder_events_folded"),
    ] {
        values.insert(metric.into(), fam(name, None).iter().sum());
    }
    Ok(())
}
