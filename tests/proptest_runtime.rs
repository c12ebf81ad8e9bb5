//! Property-based tests over the full runtime: for *any* workload shape,
//! cluster size, and scheduling mode, a job's outputs must equal the
//! serial reference, and its virtual timings must be finite, positive and
//! internally consistent.

use prs_bench::SyntheticApp;
use prs_core::{
    run_epochs, run_iterative, run_job, CheckpointableApp, ClusterSpec, EpochOptions, FaultPlan,
    JobConfig, Key, MembershipPlan, MAX_SCALE_OUT_NODES,
};
use prs_apps::CMeans;
use prs_data::gaussian::MixtureSpec;
use prs_suite::{ChainApp, HistApp};
use proptest::prelude::*;
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::sync::Arc;

/// The correctness oracle: the kit's histogram over 16-byte items.
fn hist(n: usize, k: u64, ai: f64, residency: DataResidency) -> Arc<HistApp> {
    Arc::new(HistApp { item_bytes: 16, ..HistApp::new(n, k, ai, residency) })
}

fn serial_histogram(n: usize, k: u64) -> Vec<(Key, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    for i in 0..n {
        *counts.entry((i as u64 * 2654435761) % k).or_insert(0u64) += 1;
    }
    counts.into_iter().collect()
}

fn arb_config() -> impl Strategy<Value = JobConfig> {
    prop_oneof![
        Just(JobConfig::static_analytic()),
        (0.0..=1.0f64).prop_map(JobConfig::static_with_p),
        (1usize..5000).prop_map(JobConfig::dynamic),
        Just(JobConfig::gpu_only()),
        Just(JobConfig::cpu_only()),
    ]
    .prop_flat_map(|base| {
        (1usize..=4, 1u32..=6, 1usize..=3, any::<bool>()).prop_map(
            move |(partitions, blocks_per_core, streams, combiner)| JobConfig {
                partitions_per_node: partitions,
                blocks_per_core,
                gpu_streams: streams,
                gpu_blocks_per_partition: streams.max(2),
                use_combiner: combiner,
                ..base
            },
        )
    })
}

/// Arbitrary (bounded) failure scenarios over a `nodes`-rank cluster:
/// GPU crashes, device slowdown windows, control-plane stalls, and
/// network jitter. CPU daemons never die in the model, so every plan
/// leaves at least one CPU daemon alive on every node.
fn arb_fault_plan(nodes: usize) -> impl Strategy<Value = FaultPlan> {
    (
        proptest::collection::vec((0..nodes, 0.0..2.0f64), 0..3),
        proptest::collection::vec((0..nodes, 0.0..0.5f64, 0.01..1.0f64, 1.0..4.0f64), 0..3),
        proptest::collection::vec((0..nodes, 0.0..0.01f64, 0.001..0.05f64, 0.0..0.03f64), 0..2),
        proptest::collection::vec((0..nodes, 0.0..0.5f64, 0.001..0.5f64, 0.0..0.002f64), 0..3),
    )
        .prop_map(|(crashes, slowdowns, stalls, jitters)| {
            let mut plan = FaultPlan::seeded(7);
            for (node, at) in crashes {
                plan = plan.crash_gpu(node, 0, at);
            }
            for (node, from, len, factor) in slowdowns {
                plan = plan.slow_cpu(node, from, from + len, factor);
            }
            for (node, from, len, delay) in stalls {
                plan = plan.stall_node(node, from, from + len, delay);
            }
            for (node, from, len, extra) in jitters {
                plan = plan.jitter_link(Some(node), None, from, from + len, extra);
            }
            plan
        })
}

/// The crash-recovery property's chained app, at intensity 40.
fn chain(n: usize, k: u64) -> Arc<ChainApp> {
    Arc::new(ChainApp::new(n, k, 40.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The checkpoint/restore contract: *any* seeded recoverable crash
    /// plan — node crash, master crash, or both, anywhere in the run —
    /// yields final outputs and model state bit-identical to the
    /// fault-free run, and the recovery counters reconcile with the
    /// epoch history.
    #[test]
    fn any_recoverable_crash_plan_yields_fault_free_results(
        seed in 0u64..1_000,
        (nodes, victim) in (2usize..4, 0usize..3),
        (n, k) in (500usize..3_000, 2u64..10),
        (iterations, interval) in (3usize..6, 1usize..3),
        kind in 0u8..3, // 0 = node crash, 1 = master crash, 2 = both
        (f_node, f_master) in (0.1..0.9f64, 0.1..0.9f64),
    ) {
        let config = JobConfig::static_analytic()
            .with_iterations(iterations)
            .with_checkpoint_interval(interval);
        let clean_app = chain(n, k);
        let clean = run_iterative(&ClusterSpec::delta(nodes), clean_app.clone(), config).unwrap();
        let span = clean.metrics.total_seconds;

        let mut plan = FaultPlan::seeded(seed);
        if kind == 0 || kind == 2 {
            plan = plan.crash_node(victim % nodes, f_node * span);
        }
        if kind == 1 || kind == 2 {
            plan = plan.crash_master(f_master * span);
        }
        let app = chain(n, k);
        let outcome =
            run_epochs(
                &ClusterSpec::delta(nodes).with_faults(plan),
                app.clone(),
                config,
                EpochOptions::default(),
            )
            .unwrap();

        prop_assert_eq!(&outcome.outputs, &clean.outputs);
        prop_assert_eq!(app.save_state(), clean_app.save_state());
        let r = &outcome.metrics.recovery;
        prop_assert_eq!(r.restores, r.node_crashes + r.master_failovers);
        prop_assert_eq!(outcome.attempts.len() as u64, r.restores + 1);
        // Epoch clocks are monotone and account for every attempt.
        for w in outcome.attempts.windows(2) {
            prop_assert!(w[1].base_secs > w[0].base_secs);
            prop_assert!(w[0].end_secs >= w[0].base_secs);
        }
        prop_assert!(outcome.total_virtual_secs >= span - 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The resilience contract: any fault plan that leaves the CPU
    /// daemons alive yields `Ok` with outputs key-for-key equal to the
    /// fault-free run — faults may cost time, never answers.
    #[test]
    fn any_fault_plan_preserves_outputs(
        n in 1usize..3000,
        k in 1u64..24,
        nodes in 1usize..4,
        ai in 0.5..1000.0f64,
        timeout in prop_oneof![Just(None), (0.01..0.5f64).prop_map(Some)],
        plan_seed in arb_fault_plan(3),
    ) {
        // Clamp plan node references to the drawn cluster size.
        let mut plan = plan_seed;
        for c in &mut plan.gpu_crashes { c.node %= nodes; }
        for s in &mut plan.cpu_slowdowns { s.node %= nodes; }
        for s in &mut plan.node_stalls { s.node %= nodes; }
        for f in &mut plan.link_faults {
            f.src = f.src.map(|s| s % nodes);
        }
        let mut config = JobConfig::static_analytic();
        if let Some(t) = timeout {
            config = config.with_partition_timeout(t, 1);
        }
        let app = || hist(n, k, ai, DataResidency::Staged);
        let clean = run_job(&ClusterSpec::delta(nodes), app(), config).unwrap();
        let spec = ClusterSpec::delta(nodes).with_faults(plan);
        let faulty = run_job(&spec, app(), config).unwrap();
        prop_assert_eq!(&faulty.outputs, &clean.outputs);
        prop_assert_eq!(&faulty.outputs, &serial_histogram(n, k));
        prop_assert!(faulty.metrics.total_seconds.is_finite());
        prop_assert!(faulty.metrics.total_seconds + 1e-9 >= clean.metrics.total_seconds - 1e-9);
    }

    #[test]
    fn any_config_produces_the_serial_histogram(
        n in 1usize..4000,
        k in 1u64..40,
        nodes in 1usize..5,
        residency in prop_oneof![Just(DataResidency::Staged), Just(DataResidency::Resident)],
        ai in 0.5..2000.0f64,
        config in arb_config(),
    ) {
        let app = hist(n, k, ai, residency);
        let result = run_job(&ClusterSpec::delta(nodes), app, config).unwrap();
        prop_assert_eq!(result.outputs, serial_histogram(n, k));
        let m = result.metrics;
        prop_assert!(m.total_seconds.is_finite() && m.total_seconds > 0.0);
        prop_assert!(m.compute_seconds.is_finite() && m.compute_seconds > 0.0);
        prop_assert!(m.total_seconds + 1e-12 >= m.compute_seconds);
        prop_assert_eq!(m.cpu_map_tasks + m.gpu_map_tasks > 0, true);
    }

    #[test]
    fn iterative_jobs_run_exactly_to_cap(
        iterations in 1usize..6,
        nodes in 1usize..4,
        ai in 1.0..1000.0f64,
    ) {
        let app = Arc::new(SyntheticApp {
            n: 10_000,
            item_bytes: 64,
            workload: Workload::uniform(ai, DataResidency::Resident),
            keys: 4,
            value_bytes: 64,
        });
        let r = run_iterative(
            &ClusterSpec::delta(nodes),
            app,
            JobConfig::static_analytic().with_iterations(iterations),
        )
        .unwrap();
        prop_assert_eq!(r.metrics.iterations.len(), iterations);
        // Per-iteration times are all positive and comparable (the same
        // work repeats): max/min bounded.
        let times: Vec<f64> = r.metrics.iterations.iter().map(|s| s.total()).collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        prop_assert!(min > 0.0);
        prop_assert!(max / min < 1.5, "iterations vary too much: {:?}", times);
    }

    #[test]
    fn more_nodes_never_slow_down_fixed_work(
        ai in 50.0..5000.0f64,
    ) {
        // Strong scaling sanity: the same total work on 4 nodes should not
        // take longer than on 1 (compute-dominated workload).
        let mk = || Arc::new(SyntheticApp {
            n: 1_000_000,
            item_bytes: 256,
            workload: Workload::uniform(ai, DataResidency::Resident),
            keys: 4,
            value_bytes: 64,
        });
        let t1 = run_job(&ClusterSpec::delta(1), mk(), JobConfig::static_analytic())
            .unwrap()
            .metrics
            .compute_seconds;
        let t4 = run_job(&ClusterSpec::delta(4), mk(), JobConfig::static_analytic())
            .unwrap()
            .metrics
            .compute_seconds;
        prop_assert!(t4 <= t1 * 1.05, "4 nodes ({t4}) slower than 1 ({t1})");
    }
}

/// One step of the calendar-queue model test: schedule at a drawn time,
/// pop or peek at the minimum, cancel a live entry picked by hint, or
/// drain everything up to a drawn time (peek and drain are what the
/// `Parallel` stepper's window opening does to its shards).
#[derive(Debug, Clone)]
enum QueueOp {
    Schedule(f64),
    Pop,
    Cancel(usize),
    Peek,
    DrainUntil(f64),
}

/// Up to `max_ops` steps. Entry times and drain limits both come from
/// `times`, so that a limit often equals a live entry's time exactly.
fn arb_queue_ops(
    times: impl Fn() -> BoxedStrategy<f64>,
    max_ops: usize,
) -> impl Strategy<Value = Vec<QueueOp>> {
    proptest::collection::vec(
        prop_oneof![
            10 => times().prop_map(QueueOp::Schedule),
            5 => Just(QueueOp::Pop),
            2 => proptest::prelude::any::<usize>().prop_map(QueueOp::Cancel),
            2 => Just(QueueOp::Peek),
            1 => times().prop_map(QueueOp::DrainUntil),
        ],
        1..max_ops,
    )
}

/// Times drawn across wildly mixed scales — sub-microsecond clusters,
/// ordinary seconds, and far-future stamps — so interleavings force
/// bucket-width re-tunes, day-number rollovers, and the overflow list.
fn arb_spread_ops(max_ops: usize) -> impl Strategy<Value = Vec<QueueOp>> {
    arb_queue_ops(
        || prop_oneof![0.0..1e-6f64, 0.0..100.0f64, 1e6..1e12f64].boxed(),
        max_ops,
    )
}

/// The SPMD shape: twelve in thirteen times are one of at most four
/// stamps fixed for the case, so hundreds of entries tie; the rest are
/// stragglers spread log-uniformly over twelve decades. A case opens with
/// stamps alone, often enough of them for a resize to see nothing else:
/// where the stamps are picoseconds apart, the width it picks sends later
/// stragglers — or later ties, if the stamps are large — to the overflow
/// list.
fn arb_tie_heavy_ops(max_ops: usize) -> impl Strategy<Value = Vec<QueueOp>> {
    fn decades(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
        (lo..hi).prop_map(|e| 10f64.powf(e))
    }
    let gap = prop_oneof![decades(-12.0, -9.0), decades(-9.0, 3.0)];
    (decades(-6.0, 6.0), gap, 1usize..=4, 0usize..80).prop_flat_map(
        move |(base, gap, stamps, opening)| {
            let stamp = move || (0..stamps).prop_map(move |j| base + j as f64 * gap);
            let opening = proptest::collection::vec(stamp().prop_map(QueueOp::Schedule), opening);
            let rest = arb_queue_ops(
                move || prop_oneof![12 => stamp(), 1 => decades(-6.0, 6.0)].boxed(),
                max_ops,
            );
            (opening, rest).prop_map(|(mut ops, rest)| {
                ops.extend(rest);
                ops
            })
        },
    )
}

/// Replays `ops` on a `CalendarQueue` and on a reference model (a plain
/// vector searched for its `(time, seq)` minimum, the semantics of the
/// engine's original `BinaryHeap`). Every comparison is exact: times by
/// bit pattern, order by the full `(time, seq)` key.
fn check_queue_against_model(ops: Vec<QueueOp>) -> TestCaseResult {
    use simtime::{CalendarQueue, SimTime};
    let mut q = CalendarQueue::new();
    let mut model: Vec<(f64, u64)> = Vec::new();
    let mut seq = 0u64;
    let by_key = |a: &(f64, u64), b: &(f64, u64)| a.partial_cmp(b).unwrap();
    for op in ops {
        match op {
            QueueOp::Schedule(t) => {
                q.schedule(SimTime::from_secs_f64(t), seq, seq);
                model.push((t, seq));
                seq += 1;
            }
            QueueOp::Pop => {
                let min = (0..model.len()).min_by(|&a, &b| by_key(&model[a], &model[b]));
                match min {
                    Some(i) => {
                        let (wt, ws) = model.remove(i);
                        let (gt, gs, payload) = q.pop().expect("model has entries");
                        prop_assert_eq!(gs, ws, "pop returned the wrong entry");
                        prop_assert_eq!(payload, ws);
                        prop_assert_eq!(gt.as_secs_f64().to_bits(), wt.to_bits());
                    }
                    None => prop_assert!(q.pop().is_none()),
                }
            }
            QueueOp::Cancel(hint) => {
                if model.is_empty() {
                    prop_assert!(q.cancel(hint as u64).is_none());
                } else {
                    let i = hint % model.len();
                    let (wt, ws) = model.remove(i);
                    let (gt, _) = q.cancel(ws).expect("live seq must cancel");
                    prop_assert_eq!(gt.as_secs_f64().to_bits(), wt.to_bits());
                }
            }
            QueueOp::Peek => {
                let want = model.iter().copied().min_by(by_key);
                let got = q.peek().map(|(t, s)| (t.as_secs_f64(), s));
                prop_assert_eq!(
                    got.map(|(t, s)| (t.to_bits(), s)),
                    want.map(|(t, s)| (t.to_bits(), s)),
                    "peek saw the wrong entry"
                );
            }
            QueueOp::DrainUntil(limit) => {
                let mut want: Vec<(f64, u64)> =
                    model.iter().copied().filter(|&(t, _)| t <= limit).collect();
                want.sort_by(by_key);
                model.retain(|&(t, _)| t > limit);
                let mut got = Vec::new();
                q.drain_until(SimTime::from_secs_f64(limit), &mut got);
                prop_assert_eq!(
                    got.iter()
                        .map(|&(t, s, _)| (t.as_secs_f64().to_bits(), s))
                        .collect::<Vec<_>>(),
                    want.iter().map(|&(t, s)| (t.to_bits(), s)).collect::<Vec<_>>(),
                    "drain_until({}) took the wrong entries or order",
                    limit
                );
            }
        }
        prop_assert_eq!(q.len(), model.len());
    }
    // Drain: the remainder pops in exact ascending (time, seq) order.
    model.sort_by(by_key);
    for (wt, ws) in model {
        let (gt, gs, _) = q.pop().expect("entry remains");
        prop_assert_eq!(gs, ws);
        prop_assert_eq!(gt.as_secs_f64().to_bits(), wt.to_bits());
    }
    prop_assert!(q.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The calendar queue agrees with the reference model under arbitrary
    /// interleavings of schedule, pop, peek, cancel and drain, on spread
    /// times and on tie-heavy ones.
    #[test]
    fn calendar_queue_matches_reference_model(
        spread in arb_spread_ops(200),
        ties in arb_tie_heavy_ops(400),
    ) {
        check_queue_against_model(spread)?;
        check_queue_against_model(ties)?;
    }

    /// FIFO stability: among equal timestamps, entries pop in scheduling
    /// (seq) order, however many distinct stamps, resizes, and pops
    /// interleave — the property the engine's cross-node determinism
    /// contract rests on.
    #[test]
    fn calendar_queue_equal_times_pop_fifo(
        stamps in proptest::collection::vec(0u8..8, 1..400),
    ) {
        use simtime::{CalendarQueue, SimTime};
        let mut q = CalendarQueue::new();
        for (i, s) in stamps.iter().enumerate() {
            q.schedule(SimTime::from_secs(u64::from(*s)), i as u64, i as u64);
        }
        let mut last: Option<(f64, u64)> = None;
        let mut popped = 0usize;
        while let Some((t, s, _)) = q.pop() {
            let key = (t.as_secs_f64(), s);
            if let Some(prev) = last {
                prop_assert!(key > prev, "order violated: {:?} after {:?}", key, prev);
            }
            last = Some(key);
            popped += 1;
        }
        prop_assert_eq!(popped, stamps.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The model property at length — thirty times the cases and runs
    /// long enough for a dozen resizes each way. Minutes in a debug
    /// build, so the CI `engine` job asks for it by name, in `--release`.
    #[test]
    #[ignore = "long; run with --release -- --ignored"]
    fn calendar_queue_matches_reference_model_at_length(
        spread in arb_spread_ops(3000),
        ties in arb_tie_heavy_ops(3000),
    ) {
        check_queue_against_model(spread)?;
        check_queue_against_model(ties)?;
    }
}

/// A plan over stable ids `0..ids` that fills all seven fault lists, link
/// faults with named ends and wildcards included — the input of the node
/// algebra properties (never run, so windows need not be short).
fn arb_stable_id_plan(ids: usize) -> impl Strategy<Value = FaultPlan> {
    let end = move || prop_oneof![Just(None), (0..ids).prop_map(Some)];
    (
        proptest::collection::vec((0..ids, 0usize..2, 0.0..2.0f64), 0..4),
        proptest::collection::vec((0..ids, 0usize..2, 0.0..1.0f64, 0.01..1.0f64), 0..4),
        proptest::collection::vec((end(), end(), 0.0..1.0f64, 0.01..1.0f64, 0u8..2), 0..5),
        proptest::collection::vec((0..ids, 0.0..2.0f64), 0..3),
        0usize..3,
    )
        .prop_map(|(gpu_crashes, windows, links, node_crashes, master_crashes)| {
            let mut plan = FaultPlan::seeded(11);
            for (node, gpu, at) in gpu_crashes {
                plan = plan.crash_gpu(node, gpu, at);
            }
            for (node, gpu, from, len) in windows {
                plan = plan
                    .slow_cpu(node, from, from + len, 2.0)
                    .slow_gpu(node, gpu, from, from + len, 3.0)
                    .stall_node(node, from, from + len, 0.01);
            }
            for (src, dst, from, len, partition) in links {
                plan = match partition {
                    0 => plan.jitter_link(src, dst, from, from + len, 0.001),
                    _ => plan.partition_link(src, dst, from, from + len),
                };
            }
            for (node, at) in node_crashes {
                plan = plan.crash_node(node, at);
            }
            for i in 0..master_crashes {
                plan = plan.crash_master(0.5 + i as f64);
            }
            plan
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `without_node` and `project` are one node map with two functions:
    /// the identity projection changes nothing, and dropping a node
    /// before projecting equals projecting onto the ids without it —
    /// what the epoch driver relies on when a node leaves.
    #[test]
    fn fault_plan_node_maps_compose(
        plan in arb_stable_id_plan(6),
        ids in proptest::collection::vec(0usize..6, 0..6),
        gone in 0usize..6,
    ) {
        let identity: Vec<usize> = (0..6).collect();
        prop_assert_eq!(&plan.project(&identity), &plan);
        // An id set: first occurrences only, in the drawn (rank) order.
        let mut live: Vec<usize> = Vec::new();
        for id in ids {
            if !live.contains(&id) {
                live.push(id);
            }
        }
        let survivors: Vec<usize> = live.iter().copied().filter(|&id| id != gone).collect();
        let dropped_then_projected = plan.without_node(gone).project(&survivors);
        prop_assert_eq!(&dropped_then_projected, &plan.project(&survivors));
        // And nothing in a projection points outside the rank space.
        prop_assert!(dropped_then_projected.max_node_ref().is_none_or(|m| m < survivors.len()));
    }

    /// `from_toml` never panics, whatever the lines: it returns a plan
    /// that passes `validate` (so a bounded scale-out total) or an error.
    #[test]
    fn membership_toml_never_panics(
        lines in proptest::collection::vec((0usize..12, 0usize..14), 0..12),
    ) {
        const HEADS: [&str; 12] = [
            "[[scale_out]]", "[[drain]]", "[[evict]]", "[scale_out]", "[[", "seed", "count",
            "at_s", "node", "deadline_s", "# note", "",
        ];
        const VALUES: [&str; 14] = [
            "1", "0", "-1", "0.5", "4096", "4097", "200000000000", "18446744073709551615",
            "1e400", "NaN", "inf", "-0", "", "x = = 3",
        ];
        let text: String = lines
            .iter()
            .map(|&(h, v)| match HEADS[h] {
                head if head.starts_with('[') || head.starts_with('#') || head.is_empty() => {
                    format!("{head}\n")
                }
                key => format!("{key} = {}\n", VALUES[v]),
            })
            .collect();
        if let Ok(plan) = MembershipPlan::from_toml(&text) {
            prop_assert!(plan.validate().is_ok());
            prop_assert!(plan.total_scale_out() <= MAX_SCALE_OUT_NODES);
        }
    }

    /// `WatchConfig::from_toml` never panics, whatever the lines: it
    /// returns rules the watchdog can run — every number finite and
    /// non-negative, `alpha` in [0, 1], a window of 0 (auto) or at least
    /// 1e-6 s — or an error.
    #[test]
    fn watch_toml_never_panics(
        lines in proptest::collection::vec((0usize..13, 0usize..15), 0..12),
    ) {
        const HEADS: [&str; 13] = [
            "[[rule]]", "[rule]", "merge_gap_s", "name", "detector", "objective", "threshold",
            "fast_factor", "min_samples", "window_s", "alpha", "enabled", "# note",
        ];
        const VALUES: [&str; 15] = [
            "1", "0", "-1", "0.5", "2", "1e-6", "1e-7", "1e-12", "1e400", "NaN", "inf", "-0",
            "\"r\"", "\"throughput-drop\"", "true",
        ];
        let text: String = lines
            .iter()
            .map(|&(h, v)| match HEADS[h] {
                head if head.starts_with('[') || head.starts_with('#') => format!("{head}\n"),
                key => format!("{key} = {}\n", VALUES[v]),
            })
            .collect();
        if let Ok(cfg) = watch::WatchConfig::from_toml(&text) {
            prop_assert!(cfg.merge_gap_s.is_finite() && cfg.merge_gap_s >= 0.0);
            for r in &cfg.rules {
                for x in [r.objective, r.threshold, r.fast_factor, r.window_s, r.alpha] {
                    prop_assert!(x.is_finite() && x >= 0.0, "{r:?}");
                }
                prop_assert!(r.alpha <= 1.0, "{r:?}");
                prop_assert!(r.window_s == 0.0 || r.window_s >= watch::slo::MIN_WINDOW_S, "{r:?}");
            }
        }
    }

    /// `profile_toml::parse_toml` never panics, whatever is done to a
    /// fitted profile's values and lines, and every profile it accepts
    /// runs a C-means iteration on two nodes to a result or an error —
    /// never a panic.
    #[test]
    fn profile_toml_never_panics(
        edits in proptest::collection::vec((0usize..64, 0usize..20, 0usize..3), 0..6),
    ) {
        const VALUES: [&str; 20] = [
            "0", "0.0", "-0", "-5.0", "0.5", "1", "2", "4096", "4097", "1e12", "5e-324",
            "1e-300", "1e300", "1e400", "nan", "inf", "-inf", "\"x\"", "", "= =",
        ];
        let mut cal = insight::calibrate::CalibrationProfile::new(
            roofline::profiles::DeviceProfile::delta_node(),
            0.3,
        );
        cal.observe_net_bw(3.2e9);
        let mut lines: Vec<String> =
            insight::profile_toml::to_toml(&cal).lines().map(String::from).collect();
        for (i, v, op) in edits {
            if lines.is_empty() {
                break;
            }
            let i = i % lines.len();
            match op {
                0 => {
                    if let Some((key, _)) = lines[i].split_once(" = ") {
                        lines[i] = format!("{key} = {}", VALUES[v]);
                    }
                }
                1 => drop(lines.remove(i)),
                _ => lines.insert(i, lines[i].clone()),
            }
        }
        if let Ok(cal) = insight::profile_toml::parse_toml(&lines.join("\n")) {
            let mut network = netsim::NetworkParams::infiniband_qdr();
            network.bandwidth = cal.net_bw.unwrap_or(network.bandwidth);
            let spec = ClusterSpec::homogeneous(2, cal.profile().clone(), network);
            let points = prs_data::generate(&MixtureSpec::ring(3, 2, 10.0, 1.0), 60, 3).points;
            let app = Arc::new(CMeans::new(Arc::new(points), 3, 2.0, 1e-12, 5));
            // A refusal (say, no GPU memory for the resident share) is fine.
            let _ = run_iterative(&spec, app, JobConfig::static_analytic().with_iterations(1));
        }
    }
}
