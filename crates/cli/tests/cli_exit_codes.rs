//! Exit-code contract for the artifact-reading subcommands: a missing or
//! empty `--obs` bundle must fail loudly (non-zero, message on stderr),
//! never print a half-empty report with exit 0. Runs the real binary via
//! `CARGO_BIN_EXE_prs`.

use prs_apps::catalog::{self, DriverClass, CATALOG};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn prs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prs"))
        .args(args)
        .output()
        .expect("prs binary runs")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prs-exit-codes-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Records a two-node c-means `--obs` bundle at `dir`; returns its path.
fn record_bundle(dir: &Path) -> String {
    let d = dir.to_str().expect("utf-8 temp path").to_string();
    let run = ["run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--obs", &d];
    assert!(prs(&run).status.success(), "the bundle records");
    d
}

#[test]
fn readers_reject_a_missing_bundle() {
    let missing = "/nonexistent/prs-obs-bundle";
    for cmd in [
        vec!["trace", "--dir", missing],
        vec!["metrics", "--dir", missing],
        vec!["analyze", missing],
        vec!["watch", missing],
        vec!["top", "--dir", missing, "--snapshot", "0.1"],
        vec!["profile", missing],
        vec!["diff", missing, missing],
        vec!["postmortem", missing],
    ] {
        let out = prs(&cmd);
        assert_eq!(
            out.status.code(),
            Some(1),
            "prs {} on a missing dir must exit 1",
            cmd.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error"),
            "prs {}: stderr should explain the failure, got: {stderr}",
            cmd.join(" ")
        );
    }
}

#[test]
fn readers_reject_an_empty_bundle() {
    let dir = tmp_dir("empty");
    std::fs::write(dir.join("events.jsonl"), "").expect("write empty events");
    std::fs::write(dir.join("metrics.prom"), "").expect("write empty metrics");
    let d = dir.to_str().expect("utf-8 temp path");
    for cmd in [
        vec!["trace", "--dir", d],
        vec!["metrics", "--dir", d],
        vec!["analyze", d],
        vec!["watch", d],
        vec!["profile", d],
        vec!["diff", d, d],
    ] {
        let out = prs(&cmd);
        assert_eq!(
            out.status.code(),
            Some(1),
            "prs {} on an empty bundle must exit 1",
            cmd.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("no events found")
                || stderr.contains("no samples found")
                || stderr.contains("no stack frames found"),
            "prs {}: unexpected stderr: {stderr}",
            cmd.join(" ")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_two() {
    // Scale-out counts no cluster could hold: the first used to abort in
    // release on a failed allocation, the second to overflow the total.
    let dir = tmp_dir("huge-plans");
    let plan = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write plan");
        path.to_str().expect("utf-8 temp path").to_string()
    };
    let huge = plan("huge.toml", "[[scale_out]]\ncount = 200000000000\nat_s = 0.01\n");
    let max = "[[scale_out]]\ncount = 18446744073709551615\nat_s = 0.01\n";
    let overflow = plan("overflow.toml", &max.repeat(2));
    // Rule files the watchdog cannot run: a 1e-12 s window used to abort
    // on a 6.8 TB allocation, a 1e-8 s one to run for minutes, and the
    // rest were silently accepted.
    let rule = |name: &str, line: &str| {
        let head = "[[rule]]\nname = \"r\"\ndetector = \"throughput-drop\"\nclass = \"cluster\"";
        plan(name, &format!("{head}\n{line}\n"))
    };
    let (fine, nan, negative) = (
        rule("fine.toml", "window_s = 1e-12"),
        rule("nan.toml", "threshold = nan"),
        rule("negative.toml", "objective = -1"),
    );
    let infinite = rule("inf.toml", "fast_factor = inf");
    let alpha = rule("alpha.toml", "alpha = 2");
    // A window the rules allow that would still cut this bundle's 0.2 s
    // horizon into 200 000 windows.
    let bundle = dir.join("bundle");
    std::fs::create_dir_all(&bundle).expect("create bundle");
    let event = "{\"dur\":0.2,\"kind\":\"cpu-task\",\"lane\":\"node0-cpu-c0\",\"t\":0}\n";
    std::fs::write(bundle.join("events.jsonl"), event).expect("write events");
    let bundle = bundle.to_str().expect("utf-8 temp path");
    let micro = rule("micro.toml", "window_s = 1e-6");
    // A recorded bundle: `profile --period nan`/`inf` used to panic, `1e-300`
    // to run forever, and `top --window nan` printed "busy over trailing NaNs".
    let recorded = record_bundle(&dir.join("recorded"));
    // Calibration profiles with a number no device has: the first four
    // used to panic (exit 101, or 1 for the NaN), the last to be accepted.
    let fitted = {
        let delta = roofline::profiles::DeviceProfile::delta_node();
        let mut cal = insight::calibrate::CalibrationProfile::new(delta, 0.3);
        cal.observe_net_bw(4e9);
        insight::profile_toml::to_toml(&cal)
    };
    let profile = |key: &str, value: &str| {
        let at = fitted.find(&format!("\n{key} = ")).expect("key written") + 1;
        let end = at + fitted[at..].find('\n').expect("line ends");
        let text = format!("{}{key} = {value}{}", &fitted[..at], &fitted[end..]);
        plan(&format!("{key}.toml"), &text)
    };
    let no_flops = profile("peak_flops", "0.0");
    let (no_cores, negative_bw) = (profile("cores", "0"), profile("dram_bw", "-5.0"));
    let (nan_pcie, no_network) = (profile("pcie_eff_bw", "nan"), profile("bandwidth", "0.0"));
    for cmd in [
        vec!["trace"],
        vec!["trace", "--bogus", "x"],
        vec!["chaos", "--rules", "rules.toml"], // --rules requires --score-watch
        vec!["watch"],
        vec!["profile"],                     // missing bundle dir
        vec!["profile", "x", "--bogus", "y"],
        vec!["profile", "x", "--period", "0"], // period must be positive
        vec!["profile", &recorded, "--period", "nan"],
        vec!["profile", &recorded, "--period", "inf"],
        vec!["profile", &recorded, "--period", "1e-300"], // saturated the instant count
        vec!["profile", &recorded, "--period", "1e-10"], // 8.7e9 lane-instants
        vec!["top", &recorded, "--window", "nan"],
        vec!["top", &recorded, "--window", "0"],
        vec!["top", &recorded, "--window", "inf"],
        vec!["top", &recorded, "--snapshot", "nan"],
        vec!["top", &recorded, "--snapshot", "inf"],
        vec!["diff"],                        // needs exactly two bundles
        vec!["diff", "only-one"],
        vec!["diff", "a", "b", "--bogus"],
        vec!["postmortem"],                  // missing dir
        vec!["postmortem", "x", "--bogus"],
        vec!["chaos", "--record"],           // captures need the scored grid
        vec!["chaos", "--record-out", "d"],  // needs --record
        vec!["chaos", "--churn", "--score-watch"], // churn grid stands alone
        vec!["chaos", "--churn", "--record", "--score-watch"],
        vec!["chaos", "--trials", "0"], // an empty grid passes vacuously
        vec!["chaos", "--trials", "0", "--score-watch"],
        vec!["chaos", "--trials", "0", "--churn"],
        // These used to abort on a 17.6 TB and a 26.4 TB allocation.
        vec!["chaos", "--trials", "100000000000"],
        vec!["chaos", "--churn", "--trials", "100000000000"],
        vec!["chaos", "--trials", "1048577"],
        vec!["watch", "/nonexistent/bundle", "--rules", &fine],
        vec!["watch", "/nonexistent/bundle", "--rules", &nan],
        vec!["watch", "/nonexistent/bundle", "--rules", &alpha],
        vec!["watch", bundle, "--rules", &micro],
        vec!["chaos", "--score-watch", "--rules", &fine],
        vec!["chaos", "--score-watch", "--rules", &negative],
        vec!["chaos", "--score-watch", "--rules", &infinite],
        vec!["run", "--record-budget", "0"], // budget must be at least 1
        // Elastic runs need a checkpointable app.
        vec!["run", "--membership", "p.toml", "--app", "gemv"],
        vec!["run", "--autoscale", "--app", "gmm"],
        // No arithmetic intensity at zero dimensions: these used to panic.
        vec!["run", "--app", "gmm", "--dims", "0", "--points", "100", "--clusters", "2"],
        vec!["run", "--app", "dgemm", "--dims", "0"],
        vec!["sweep", "--app", "gmm", "--dims", "0", "--points", "100", "--clusters", "2"],
        vec!["run", "--profile-file", &no_flops],
        vec!["advise", "--ai", "500", "--residency", "resident", "--profile-file", &no_flops],
        vec!["run", "--profile-file", &no_cores],
        vec!["run", "--profile-file", &negative_bw],
        vec!["run", "--profile-file", &nan_pcie],
        vec!["run", "--profile-file", &no_network],
        // Values the job itself refuses: these used to exit 1 as a job
        // that ran and failed.
        vec!["run", "--streams", "0"],
        vec!["run", "--iterations", "0"],
        vec!["run", "--gpus", "0"],
        vec!["run", "--blocks-per-core", "0"],
        vec!["run", "--profile", "delta", "--gpus", "3"], // the profile has 2
        vec!["sweep", "--streams", "0"],
        vec!["sweep", "--iterations", "0"],
        vec!["sweep", "--gpus", "0"],
        vec!["sweep", "--blocks-per-core", "0"],
        vec!["sweep", "--profile", "delta", "--gpus", "3"],
        vec!["run", "--membership", "/nonexistent/plan.toml"], // unreadable plan file
        vec!["run", "--membership", &huge],     // more nodes than can be simulated
        vec!["run", "--membership", &overflow], // total overflows usize
        vec!["definitely-not-a-subcommand"],
        vec!["bench", "--all"], // retired: the repo benchmark is benchmark/run.sh
    ] {
        let out = prs(&cmd);
        assert_eq!(
            out.status.code(),
            Some(2),
            "prs {} must exit 2 (usage error)",
            cmd.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "prs {}: {stderr}", cmd.join(" "));
        // Every usage error leaves through `main`'s one `error:` line.
        assert!(stderr.contains("error: "), "prs {}: {stderr}", cmd.join(" "));
    }
    let stderr = prs(&["bench", "--all"]).stderr;
    assert!(String::from_utf8_lossy(&stderr).contains("error: unknown command 'bench'"));
    // The refusals name what to change: the limit, the rule file's line.
    for (cmd, says) in [
        (vec!["chaos", "--trials", "100000000000"], "above the limit of 1048576".into()),
        (vec!["profile", &recorded, "--period", "nan"], "--period NaN: must be a finite number".into()),
        (vec!["profile", &recorded, "--period", "1e-300"], "above the limit of 1e9".into()),
        (vec!["top", &recorded, "--window", "0"], "--window 0: must be a finite number greater".into()),
        (vec!["top", &recorded, "--snapshot", "inf"], "--snapshot inf: must be a finite".into()),
        (
            vec!["chaos", "--score-watch", "--rules", &fine],
            format!("{fine}: line 5: `window_s` = 1e-12"),
        ),
        (vec!["watch", bundle, "--rules", &micro], "into 200000 windows, above the limit".into()),
        (vec!["run", "--app", "gmm", "--membership", "p.toml"], "(try: cmeans, kmeans, da)".into()),
        (vec!["run", "--app", "dgemm", "--dims", "0"], "--dims 0 leaves the app no arithmetic intensity".into()),
        (vec!["run", "--profile-file", &no_flops], format!("{no_flops}: key \"peak_flops\"")),
        (vec!["run", "--profile-file", &nan_pcie], "key \"pcie_eff_bw\": NaN".into()),
        (
            vec!["run", "--streams", "0"],
            "error: invalid job config: gpu_streams must be >= 1".into(),
        ),
        (
            vec!["sweep", "--profile", "delta", "--gpus", "3"],
            "error: at p = 0: invalid job config: scheduling mode needs 3 GPU(s)".into(),
        ),
    ] {
        let stderr = String::from_utf8_lossy(&prs(&cmd).stderr).into_owned();
        assert!(stderr.contains(&says), "prs {}: want {says:?}, got {stderr}", cmd.join(" "));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `prs help` cannot drift from `main`'s dispatch: every `prs <cmd>` the
/// USAGE block names reaches a subcommand's own argument check.
#[test]
fn every_command_in_the_help_text_is_dispatched() {
    let out = prs(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    let usage = help.split("USAGE:").nth(1).expect("help has a USAGE block");
    let usage = usage.split("RUN OPTIONS").next().expect("USAGE block ends");
    let cmds: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  prs ")?.split_whitespace().next())
        .collect();
    assert!(cmds.contains(&"run") && cmds.contains(&"help"), "USAGE block not parsed: {cmds:?}");
    assert!(!help.contains("bench"), "the retired subcommand is still advertised");
    for cmd in cmds {
        let out = prs(&[cmd, "--no-such-flag"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "prs {cmd} --no-such-flag: {stderr}");
        assert!(stderr.contains("error: unknown flag --no-such-flag"), "prs {cmd}: {stderr}");
        assert!(!stderr.contains("unknown command"), "prs {cmd} is in the help text only");
    }
}

#[test]
fn too_many_clusters_is_a_usage_error() {
    // The clustering apps need more points than clusters; this used to
    // trip a constructor assertion (exit 101 and a backtrace).
    for cmd in [
        vec!["run", "--app", "cmeans", "--clusters", "8", "--points", "8"],
        vec!["run", "--app", "kmeans", "--clusters", "9", "--points", "8"],
        vec!["run", "--app", "gmm", "--clusters", "8", "--points", "8"],
        vec!["run", "--app", "da", "--clusters", "8", "--points", "3"],
        vec!["sweep", "--app", "kmeans", "--clusters", "8", "--points", "8"],
        // Word count's vocabulary is 100 words per cluster in a u32: this
        // one used to wrap to 705 032 704 words and run for minutes.
        vec!["run", "--app", "wordcount", "--points", "1000", "--clusters", "50000000"],
    ] {
        let out = prs(&cmd);
        assert_eq!(out.status.code(), Some(2), "prs {} must exit 2", cmd.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: --clusters") && !stderr.contains("panicked"),
            "prs {}: stderr should name the option, got: {stderr}",
            cmd.join(" ")
        );
    }
}

#[test]
fn a_resident_share_that_does_not_fit_gpu_memory_is_an_error_line_and_exit_one() {
    // `prs calibrate`'s output with the GPU's memory cut to 1000 bytes:
    // c-means keeps 2000 x 4 x f32 / 2 nodes = 16 000 bytes resident per
    // node. This used to panic inside the `stage-gpu0` process.
    let dir = tmp_dir("gpu-oom");
    let profile = dir.join("cal.toml");
    let toml = "schema = \"prs-calibration-v1\"\nalpha = 0.3\n\
        [samples]\ncpu = 1\ngpu = 1\npcie = 1\nnet = 1\n\
        [network]\nbandwidth = 4e9\n\
        [profile]\nname = \"Tiny\"\n\
        [profile.cpu]\nmodel = \"cpu\"\ncores = 2\npeak_flops = 2e10\ndram_bw = 1e10\n\
        mem_bytes = 8589934592\n\
        [[profile.gpu]]\nmodel = \"gpu\"\ncores = 128\npeak_flops = 2e11\ndram_bw = 4e10\n\
        pcie_peak_bw = 8e9\npcie_eff_bw = 9.2e8\nmem_bytes = 1000\nhw_queues = 1\n";
    std::fs::write(&profile, toml).expect("write profile");
    let out = prs(&[
        "run", "--app", "cmeans", "--nodes", "2", "--points", "2000", "--dims", "4",
        "--clusters", "3", "--iterations", "2", "--profile-file",
        profile.to_str().expect("utf-8 temp path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert!(
        matches!(lines[..], [line] if line.starts_with("error: ")
            && line.contains("node 0")
            && line.contains("16000 bytes")
            && line.contains("1000 bytes")),
        "one `error:` line naming the node and both sizes, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_two_thousand_node_job_runs_under_a_tight_ulimit() {
    // 1.5 GB of address space holds some 1400 one-MiB stacks. This job's
    // 2001 product processes, one sub-task scheduler per node and the
    // master, each had one, and the run used to end in one `error:` line
    // naming the limits, exit 1. Every product process is now a task with
    // no stack, so the same job under the same limit runs to the end.
    // Running out of stacks stays a typed error for the stackful
    // processes that remain (`simtime`'s
    // `a_refused_stack_ends_the_run_with_an_error_and_no_stack_held`).
    // The watchdog stays: this used to be a panic in `coro.rs` that, with
    // a backtrace asked for, never exited at all.
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let limited = |script: &str| {
        let mut sh = Command::new("sh");
        sh.args(["-c", &format!("ulimit -v 1500000 && {script}")])
            .arg(env!("CARGO_BIN_EXE_prs"))
            .env("RUST_BACKTRACE", "1")
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        sh
    };
    if !limited("true").status().is_ok_and(|s| s.success()) {
        eprintln!("skipped: no `sh` with a working `ulimit -v` here");
        return;
    }
    let mut child = limited(
        "exec \"$0\" run --app cmeans --nodes 2000 --profile micro \
         --points 27000 --dims 8 --clusters 8 --iterations 1",
    )
    .spawn()
    .expect("sh runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("wait for prs") {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("prs was still running after 30 s");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let out = child.wait_with_output().expect("collect stderr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "a clean run prints nothing on stderr, got: {stderr}");
}

#[test]
fn postmortem_rejects_a_dir_without_captures() {
    // The dir exists but holds no capture-*.jsonl: exit 1, not a
    // zero-incident report with exit 0.
    let dir = tmp_dir("no-captures");
    std::fs::write(dir.join("events.jsonl"), "").expect("write empty events");
    let out = prs(&["postmortem", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1), "empty capture set must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no capture"),
        "stderr should name the missing captures: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recorded_run_feeds_the_postmortem_reader() {
    // `run --record --obs` emits postmortem.json (incident-free here, so
    // no captures), and the recorder block lands in rollup.jsonl.
    let dir = tmp_dir("record-e2e");
    let d = dir.to_str().expect("utf-8 temp path");
    let run = prs(&[
        "run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--record", "--obs", d,
    ]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(dir.join("postmortem.json").is_file(), "postmortem.json missing");
    let rollup = std::fs::read_to_string(dir.join("rollup.jsonl")).expect("rollup.jsonl");
    assert!(rollup.contains("\"recorder\""), "rollup lacks the recorder block:\n{rollup}");
    let metrics = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
    assert!(
        metrics.contains("prs_recorder_events_retained"),
        "recorder gauges missing from metrics.prom"
    );
    // A healthy bundle has no captures, so the standalone reader says so.
    let pm = prs(&["postmortem", d]);
    assert_eq!(pm.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn membership_run_writes_audited_decisions() {
    // A drain plan through the real binary, for every checkpointable app:
    // the run succeeds, reports the elastic epoch count, the --obs
    // bundle's decision audit carries the membership scale lines, and
    // `top` replays the cluster size. The autoscaler runs too.
    for app in catalog::names(Some(DriverClass::Checkpointable)) {
        let dir = tmp_dir(&format!("membership-{app}"));
        let plan = dir.join("plan.toml");
        std::fs::write(&plan, "seed = 11\n\n[[drain]]\nnode = 1\nat_s = 0.05\ndeadline_s = 10.0\n")
            .expect("write plan");
        let d = dir.to_str().expect("utf-8 temp path");
        let out = prs(&[
            "run", "--app", app, "--nodes", "2", "--points", "20000", "--iterations", "3",
            "--membership", plan.to_str().expect("utf-8 plan path"), "--obs", d,
        ]);
        assert_eq!(out.status.code(), Some(0), "{app}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("elastic:"), "{app}: run summary lacks the elastic line: {stdout}");
        let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
        assert!(
            events.contains("\"membership\""),
            "{app}: event bus lacks the membership lane:\n{events}"
        );
        let metrics = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
        assert!(
            metrics.contains("prs_membership_total"),
            "{app}: membership counters missing from metrics.prom"
        );
        let top = prs(&["top", d, "--snapshot", "0.2"]);
        assert_eq!(top.status.code(), Some(0), "{app}: {}", String::from_utf8_lossy(&top.stderr));
        let top = String::from_utf8_lossy(&top.stdout);
        assert!(top.contains("cluster size:"), "{app}: top snapshot lacks the cluster size:\n{top}");
        let auto = prs(&[
            "run", "--app", app, "--nodes", "2", "--points", "20000", "--iterations", "4", "--autoscale",
        ]);
        assert_eq!(auto.status.code(), Some(0), "{app} --autoscale: {}", String::from_utf8_lossy(&auto.stderr));
        // A malformed plan is a usage error, caught before any run starts.
        std::fs::write(&plan, "[[drain]]\nnode = 1\nwhen = 0.5\n").expect("rewrite plan");
        let bad = prs(&["run", "--app", app, "--membership", plan.to_str().expect("utf-8 plan path")]);
        assert_eq!(bad.status.code(), Some(2), "{app}: malformed plan must exit 2");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every catalog app runs through `prs run --json` at a tiny shape, and
/// its document names the app by the entry's label.
#[test]
fn every_app_runs_under_its_label() {
    for entry in &CATALOG {
        let out = prs(&[
            "run", "--app", entry.name, "--json", "--profile", "micro", "--points", "300",
            "--dims", "4", "--clusters", "2", "--iterations", "2",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "--app {}: {stderr}", entry.name);
        let doc = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("JSON");
        assert_eq!(doc["app"].as_str(), Some(entry.label), "--app {}", entry.name);
    }
}

#[test]
fn churn_grid_passes_and_writes_its_report() {
    let dir = tmp_dir("churn");
    let out_file = dir.join("churn.json");
    let out = prs(&[
        "chaos", "--churn", "--trials", "3",
        "--out", out_file.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let report = std::fs::read_to_string(&out_file).expect("churn report written");
    assert!(report.contains("\"all_passed\": true"), "grid should pass:\n{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn end_to_end_run_then_watch_succeeds() {
    let dir = tmp_dir("e2e");
    let d = dir.to_str().expect("utf-8 temp path");
    let run = prs(&["run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--obs", d]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    // `prs help` names every file the bundle holds.
    let help = String::from_utf8_lossy(&prs(&["help"]).stdout).into_owned();
    let obs_option = help.split("--obs <dir>").nth(1).and_then(|s| s.split("--record").next());
    for entry in std::fs::read_dir(&dir).expect("list bundle") {
        let name = entry.expect("bundle entry").file_name().into_string().expect("utf-8 name");
        assert!(obs_option.is_some_and(|o| o.contains(&name)), "prs help's --obs omits {name}");
    }
    for artifact in [
        "events.jsonl",
        "alerts.jsonl",
        "incidents.jsonl",
        "stacks.jsonl",
        "profile.folded",
        "profile.json",
    ] {
        assert!(dir.join(artifact).is_file(), "{artifact} missing from the bundle");
    }
    for artifact in ["stacks.jsonl", "profile.folded", "profile.json"] {
        let len = std::fs::metadata(dir.join(artifact)).map_or(0, |m| m.len());
        assert!(len > 0, "{artifact} is empty");
    }
    // The profiler and the differ both accept the bundle they just wrote.
    for args in [&["profile", d][..], &["profile", d, "--folded"]] {
        let profile = prs(args);
        assert_eq!(
            profile.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&profile.stderr)
        );
        assert!(!profile.stdout.is_empty(), "prs {args:?} printed nothing");
    }
    let selfdiff = prs(&["diff", d, d]);
    assert_eq!(
        selfdiff.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&selfdiff.stderr)
    );
    let diff = std::fs::read_to_string(dir.join("diff.json")).expect("diff.json written into the candidate bundle");
    assert!(diff.contains("\"schema\": \"prs-diff-v1\""), "diff.json schema:\n{diff}");
    let watchdog = prs(&["watch", d]);
    assert_eq!(
        watchdog.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&watchdog.stderr)
    );
    let stdout = String::from_utf8_lossy(&watchdog.stdout);
    assert!(
        stdout.contains("healthy: no alerts"),
        "fault-free bundle should be healthy: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The Gantt chart, `--trace` and the bundle's `trace.json`, byte for
/// byte: a GPU-only run's stdout and trace file, a plain run's bundle, and
/// the bundle of an elastic run, whose trace is its final attempt's. The
/// constants were captured on commit 198c3f0, while device busy time still
/// had a recorder of its own; do not regenerate them for a host-side change.
#[test]
fn gantt_and_traces_are_pinned() {
    let dir = tmp_dir("trace-pins");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
    let ok = |args: &[&str]| {
        let out = prs(args);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let trace = path("t.json");
    let gantt = ok(&["run", "--app", "gemv", "--mode", "gpu", "--timeline", "--trace", &trace]);
    let plain = path("plain");
    ok(&["run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--obs", &plain]);
    let plan = path("plan.toml");
    std::fs::write(&plan, "seed = 11\n\n[[drain]]\nnode = 1\nat_s = 0.05\ndeadline_s = 10.0\n")
        .expect("write plan");
    let elastic = path("elastic");
    let summary = ok(&[
        "run", "--nodes", "2", "--points", "20000", "--iterations", "3", "--membership", &plan,
        "--obs", &elastic,
    ]);
    assert!(
        String::from_utf8_lossy(&summary).contains("elastic: 2 epoch(s)"),
        "the drain must split the run: {}",
        String::from_utf8_lossy(&summary)
    );
    let read = |file: String| std::fs::read(&file).expect("trace file");
    let got = [
        fnv1a(&gantt),
        fnv1a(&read(trace)),
        fnv1a(&read(format!("{plain}/trace.json"))),
        fnv1a(&read(format!("{elastic}/trace.json"))),
    ];
    assert_eq!(got, TRACE_PINS, "{got:#018x?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `gemv --timeline` stdout, its `--trace` file, the plain bundle's
/// `trace.json`, the elastic bundle's `trace.json`.
const TRACE_PINS: [u64; 4] =
    [0x0841a9ea7afe4772, 0x3e8c041ad3a84000, 0x8178f2ebf6e90086, 0x9ed0eca9ac2d1582];

/// Every file of a `--record --obs` bundle (each preceded by its path),
/// byte for byte: a plain two-node run, the drain-plan elastic run of
/// `gantt_and_traces_are_pinned`, and a 16-node dynamic run, whose
/// event log is full of equal-`t` ties. The flight recorder's retained
/// set shows in `metrics.prom` (`prs_recorder_*`) and in any capture. The
/// first two constants were captured on commit a85f347, while the
/// recorder still copied every event out of the bus, the third on commit
/// 1f6d20b, while every event was a heap object of its own; do not
/// regenerate them for a host-side change.
///
/// The same dynamic run with `--record` alone trims the bus as the
/// recorder ingests it and reports its retained set on stderr; that line
/// is pinned at the default budget and at one small enough to evict.
#[test]
fn recorded_bundles_are_pinned() {
    let dir = tmp_dir("record-pins");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
    let ok = |args: &[&str]| {
        let out = prs(args);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    };
    let plain = path("plain");
    ok(&["run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--record", "--obs", &plain]);
    let plan = path("plan.toml");
    std::fs::write(&plan, "seed = 11\n\n[[drain]]\nnode = 1\nat_s = 0.05\ndeadline_s = 10.0\n")
        .expect("write plan");
    let elastic = path("elastic");
    ok(&[
        "run", "--nodes", "2", "--points", "20000", "--iterations", "3", "--membership", &plan,
        "--record", "--obs", &elastic,
    ]);
    let dynamic = ["run", "--nodes", "16", "--mode", "dynamic:100", "--record"];
    let ties = path("ties");
    ok(&[&dynamic[..], &["--obs", &ties]].concat());
    let bundle = |d: &str| {
        let mut bytes = Vec::new();
        for (path, content) in files_under(std::path::Path::new(d)) {
            bytes.extend(format!("{path}\n").into_bytes());
            bytes.extend(content);
        }
        fnv1a(&bytes)
    };
    let got = [bundle(&plain), bundle(&elastic), bundle(&ties)];
    assert_eq!(got, RECORD_PINS, "{got:#018x?}");
    let stderr = |extra: &[&str]| {
        let out = prs(&[&dynamic[..], extra].concat());
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stderr).expect("utf-8 stderr")
    };
    assert_eq!(stderr(&[]), RECORD_LINES[0]);
    assert_eq!(stderr(&["--record-budget", "2048", "--record-window", "0.001"]), RECORD_LINES[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The plain `--record` bundle, the elastic `--record` bundle, the
/// 16-node dynamic `--record` bundle.
const RECORD_PINS: [u64; 3] = [0xa77424a83c53d2d6, 0x21cb3955c8924468, 0xda0cbd4f8143eec7];

/// The 16-node dynamic run's stderr under `--record` alone: default
/// budget, then a 2048-event budget with a 1 ms window.
const RECORD_LINES: [&str; 2] = [
    "flight recorder: 17632 event(s) retained (peak 17632), 0 folded into 0 rollup bin(s), \
     ~3603056 B resident\n",
    "flight recorder: 2048 event(s) retained (peak 6912), 15584 folded into 354 rollup bin(s), \
     ~468206 B resident\n",
];

/// The `--json` stdout of four product jobs, and every file of the two
/// `--obs --record` bundles: the 1000-node micro c-means job of the
/// `scale` benchmark workload, the 256-node wordcount job of the
/// `shuffle` workload at seed 42, a 64-node wordcount job (its shuffle
/// drains `recv_any`'s pending queue) and a 128-node dynamic c-means
/// job. The constants were captured on commit 663b035, while each node's
/// sub-task scheduler and the master were stackful coroutines, the
/// 256-node one on commit be1f02b; do not regenerate them for a
/// process-model or memory-layout change.
#[test]
fn product_runs_are_pinned() {
    let dir = tmp_dir("product-pins");
    let json = |args: &[&str]| {
        let out = prs(args);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let recorded = |name: &str, args: &[&str]| {
        let obs = dir.join(name).to_str().expect("utf-8 temp path").to_string();
        let mut bytes = json(&[args, &["--json", "--obs", &obs, "--record"]].concat());
        for (path, content) in files_under(std::path::Path::new(&obs)) {
            bytes.extend(format!("{path}\n").into_bytes());
            bytes.extend(content);
        }
        fnv1a(&bytes)
    };
    let scale = json(&[
        "run", "--app", "cmeans", "--nodes", "1000", "--profile", "micro", "--points", "27000",
        "--dims", "8", "--clusters", "8", "--iterations", "1", "--seed", "7", "--json",
    ]);
    let shuffle = json(&[
        "run", "--app", "wordcount", "--nodes", "256", "--profile", "micro", "--points", "1000000",
        "--dims", "32", "--clusters", "8", "--iterations", "1", "--streams", "1", "--mode", "static",
        "--seed", "42", "--json",
    ]);
    let got = [
        fnv1a(&scale),
        fnv1a(&shuffle),
        recorded("wordcount", &["run", "--app", "wordcount", "--nodes", "64"]),
        recorded(
            "dynamic",
            &["run", "--app", "cmeans", "--nodes", "128", "--mode", "dynamic:100", "--iterations", "3"],
        ),
    ];
    assert_eq!(got, PRODUCT_PINS, "{got:#018x?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The 1000-node job's stdout; the 256-node wordcount stdout; the 64-node
/// wordcount stdout and bundle; the dynamic c-means stdout and bundle.
const PRODUCT_PINS: [u64; 4] =
    [0xec7f7755b33cb5a4, 0xb851c930d49ad699, 0xb9387e27c869419d, 0x1926e2a62ebc32c0];

/// Every file under `dir`, as (path relative to `dir`, bytes), in path
/// order.
fn files_under(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).expect("list dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir").to_str().expect("utf-8 path");
                files.push((rel.to_string(), std::fs::read(&path).expect("read file")));
            }
        }
    }
    files.sort();
    files
}

/// `prs chaos --trials 8 --seed 7`'s stdout and every file it writes
/// (each preceded by its path), byte for byte, in each of its six forms.
/// Each form runs in a fresh directory with the default output names, so
/// the paths stdout prints are the same on every machine. Captured on
/// commit 12aafeb, before the harness became one driver per grid; do not
/// regenerate them for a host-side change.
#[test]
fn chaos_stdout_and_files_are_pinned() {
    let forms: [&[&str]; 6] = [
        &[],
        &["--json"],
        &["--score-watch"],
        &["--score-watch", "--record", "--record-out", "D"],
        &["--churn"],
        &["--churn", "--json"],
    ];
    let mut got = [0u64; 6];
    for (i, form) in forms.iter().enumerate() {
        let dir = tmp_dir(&format!("chaos-pin-{i}"));
        let out = Command::new(env!("CARGO_BIN_EXE_prs"))
            .current_dir(&dir)
            .args(["chaos", "--trials", "8", "--seed", "7"])
            .args(*form)
            .output()
            .expect("prs binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{form:?}: {stderr}");
        let mut bytes = out.stdout;
        for (path, content) in files_under(&dir) {
            bytes.extend(format!("{path}\n").into_bytes());
            bytes.extend(content);
        }
        got[i] = fnv1a(&bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(got, CHAOS_PINS, "{got:#018x?}");
}

/// Plain, `--json`, `--score-watch`, `--score-watch --record`,
/// `--churn`, `--churn --json`.
const CHAOS_PINS: [u64; 6] = [
    0x79c96e365ad44c00,
    0x20a7ec75a6ad47e8,
    0x89851a87428636c8,
    0x19c0ddebc72acd50,
    0xcbf3e165acf628f8,
    0x6356a80fe31498d6,
];

/// A fresh `--obs` bundle of a small two-node run, in its own directory.
fn observed_bundle(name: &str) -> PathBuf {
    let dir = tmp_dir(name);
    let d = dir.to_str().expect("utf-8 temp path");
    let run = prs(&["run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--obs", d]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    dir
}

/// A copy of the directory `of` in which `file` holds `content`.
fn damaged_copy(of: &PathBuf, name: &str, file: &str, content: &str) -> PathBuf {
    let dir = tmp_dir(name);
    for entry in std::fs::read_dir(of).expect("list bundle") {
        let path = entry.expect("bundle entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
    }
    std::fs::write(dir.join(file), content).expect("write the damaged file");
    dir
}

/// A line file behind a meta line, cut short two ways: half its records
/// kept, the cut falling exactly between two lines and halfway into the
/// next one. Returns (records, records kept, boundary cut, mid-line cut).
fn cuts(text: &str) -> (usize, usize, String, String) {
    let lines: Vec<&str> = text.lines().collect();
    let total = lines.len() - 1;
    let kept = total / 2;
    let at_line_boundary = lines[..=kept].join("\n") + "\n";
    let inside_a_line = text[..at_line_boundary.len() + lines[kept + 1].len() / 2].to_string();
    (total, kept, at_line_boundary, inside_a_line)
}

#[test]
fn readers_reject_a_truncated_bundle() {
    // A bundle cut short must not be analysed as if it were whole, whether
    // the cut falls inside a line (bad JSON) or exactly between two lines
    // (every line still parses; only the meta line's count gives it away).
    let whole = observed_bundle("truncated-whole");
    let events = std::fs::read_to_string(whole.join("events.jsonl")).expect("events.jsonl");
    let lines: Vec<&str> = events.lines().collect();
    let total = lines.len() - 1; // minus the meta line
    assert!(lines[0].contains(&format!("\"events\":{total}")), "meta line: {}", lines[0]);
    let kept = total / 2;
    let at_line_boundary = lines[..=kept].join("\n") + "\n";
    let inside_a_line = {
        let cut = at_line_boundary.len() + lines[kept + 1].find("\"lane\":\"").expect("a lane") + 10;
        events[..cut].to_string()
    };
    let without_meta = lines[1..].join("\n") + "\n";

    let run_all = |dir: &PathBuf| -> Vec<(String, Output)> {
        let d = dir.to_str().expect("utf-8 temp path");
        let cal = dir.join("fit.toml");
        let cal = cal.to_str().expect("utf-8 temp path");
        [
            vec!["analyze", d],
            vec!["watch", d],
            vec!["profile", d],
            vec!["top", d, "--frames", "2"],
            vec!["calibrate", "--from-trace", d, "--out", cal],
            vec!["trace", "--dir", d],
        ]
        .into_iter()
        .map(|cmd| (cmd.join(" "), prs(&cmd)))
        .collect()
    };

    let dir = damaged_copy(&whole, "truncated-boundary", "events.jsonl", &at_line_boundary);
    for (cmd, out) in run_all(&dir) {
        assert_eq!(out.status.code(), Some(1), "prs {cmd} on half a bundle must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("declares {total} ")) && stderr.contains(&format!(" {kept} were read")),
            "prs {cmd}: stderr should name both counts, got: {stderr}"
        );
    }
    assert!(!dir.join("fit.toml").exists(), "calibrate wrote a profile from half a run");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = damaged_copy(&whole, "truncated-midline", "events.jsonl", &inside_a_line);
    for (cmd, out) in run_all(&dir) {
        assert_eq!(out.status.code(), Some(1), "prs {cmd} on a cut line must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("events.jsonl line {}:", kept + 2)),
            "prs {cmd}: stderr should name the damaged line, got: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // No meta line, no count to check: hand-written fixtures and
    // pre-schema bundles keep reading.
    let dir = damaged_copy(&whole, "truncated-no-meta", "events.jsonl", &without_meta);
    for (cmd, out) in run_all(&dir) {
        assert_eq!(
            out.status.code(),
            Some(0),
            "prs {cmd} without a meta line: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&whole);
}

/// The audit log is held to its meta line the same way: the readers that
/// join decisions to events refuse half a `decisions.jsonl`, and `watch`
/// leaves the verdict files as the run wrote them.
#[test]
fn readers_reject_a_truncated_bundle_audit_log() {
    let whole = observed_bundle("truncated-decisions-whole");
    let decisions = std::fs::read_to_string(whole.join("decisions.jsonl")).expect("decisions.jsonl");
    let (total, kept, at_line_boundary, inside_a_line) = cuts(&decisions);
    let meta = decisions.lines().next().expect("a meta line");
    assert!(meta.contains(&format!("\"decisions\":{total}")), "meta line: {meta}");
    let verdicts = |dir: &PathBuf| {
        ["alerts.jsonl", "incidents.jsonl"].map(|f| std::fs::read(dir.join(f)).expect("verdict file"))
    };
    for (name, content, says) in [
        (
            "truncated-decisions-boundary",
            &at_line_boundary,
            format!("decisions.jsonl: the meta line declares {total} record(s) but {kept} were read"),
        ),
        (
            "truncated-decisions-midline",
            &inside_a_line,
            format!("decisions.jsonl line {}:", kept + 2),
        ),
    ] {
        let dir = damaged_copy(&whole, name, "decisions.jsonl", content);
        let d = dir.to_str().expect("utf-8 temp path");
        for cmd in [vec!["watch", d], vec!["top", d, "--frames", "2"]] {
            let out = prs(&cmd);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "prs {cmd:?} on half an audit log: {stderr}");
            assert!(stderr.contains(&says), "prs {cmd:?}: stderr should say {says:?}, got: {stderr}");
        }
        assert_eq!(verdicts(&dir), verdicts(&whole), "{name}: watch rewrote the run's verdict");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&whole);
}

/// So is the incident log `top` and `postmortem` read: two rows under a
/// meta line that declares them, cut the same two ways.
#[test]
fn readers_reject_a_truncated_bundle_incident_log() {
    let whole = observed_bundle("truncated-incidents-whole");
    let incidents = std::fs::read_to_string(whole.join("incidents.jsonl")).expect("incidents.jsonl");
    let meta = incidents.lines().next().expect("a meta line");
    assert!(meta.contains("\"incidents\":0"), "meta line: {meta}");
    let meta = meta.replace("\"incidents\":0", "\"incidents\":2");
    let rows = ["{\"capture\":\"capture-0\",\"id\":0}", "{\"capture\":\"capture-1\",\"id\":1}"];
    let at_line_boundary = format!("{meta}\n{}\n", rows[0]);
    let inside_a_line = format!("{at_line_boundary}{}", &rows[1][..rows[1].len() / 2]);
    for (name, content, says) in [
        (
            "truncated-incidents-boundary",
            &at_line_boundary,
            "incidents.jsonl: the meta line declares 2 record(s) but 1 were read",
        ),
        ("truncated-incidents-midline", &inside_a_line, "incidents.jsonl line 3:"),
    ] {
        let dir = damaged_copy(&whole, name, "incidents.jsonl", content);
        let d = dir.to_str().expect("utf-8 temp path");
        for cmd in [vec!["top", d, "--frames", "2"], vec!["postmortem", d]] {
            let out = prs(&cmd);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "prs {cmd:?} on half an incident log: {stderr}");
            assert!(stderr.contains(says), "prs {cmd:?}: stderr should say {says:?}, got: {stderr}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&whole);
}

/// So are the profiler's frames and a flight-recorder capture, in a
/// recorded chaos trial dir (the one kind of bundle that holds captures
/// without a fault plan of its own): `profile` and `postmortem` refuse
/// half a `stacks.jsonl`, `postmortem` half a capture.
#[test]
fn readers_reject_a_truncated_bundle_chaos_trial() {
    let chaos = tmp_dir("truncated-chaos");
    let at = |name: &str| chaos.join(name).to_str().expect("utf-8 temp path").to_string();
    let (rec, report, score) = (at("rec"), at("chaos.json"), at("watch.json"));
    let grid = prs(&[
        "chaos", "--trials", "1", "--seed", "7", "--score-watch", "--record", "--record-out", &rec,
        "--out", &report, "--watch-out", &score,
    ]);
    assert_eq!(grid.status.code(), Some(0), "{}", String::from_utf8_lossy(&grid.stderr));
    let trial = chaos.join("rec").join("trial-0");
    for (file, counted, cmds) in [
        ("stacks.jsonl", "stacks.jsonl", &["profile", "postmortem"][..]),
        ("capture-0.jsonl", "capture", &["postmortem"][..]),
    ] {
        let text = std::fs::read_to_string(trial.join(file)).expect("trial file");
        let (total, kept, at_line_boundary, inside_a_line) = cuts(&text);
        assert!(total > 2, "{file} holds {total} record(s)");
        for (name, content, says) in [
            (
                "boundary",
                &at_line_boundary,
                format!("{counted}: the meta line declares {total} record(s) but {kept} were read"),
            ),
            ("midline", &inside_a_line, format!("{counted} line {}:", kept + 2)),
        ] {
            let dir = damaged_copy(&trial, &format!("truncated-{file}-{name}"), file, content);
            let d = dir.to_str().expect("utf-8 temp path");
            for cmd in cmds {
                let out = prs(&[cmd, d]);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(1), "prs {cmd} on half a {file}: {stderr}");
                assert!(
                    stderr.contains(&format!("{file}: {says}")),
                    "prs {cmd}: stderr should name {file} and say {says:?}, got: {stderr}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&chaos);
}

/// A bundle is named by its directory or by any file in it: every reader
/// takes each artifact from that directory by its own name, so naming
/// `events.jsonl` or `decisions.jsonl` prints what naming the directory
/// prints.
/// `prs trace`'s recovery log lists the whole fault family: a bundle
/// whose only faults are a node crash, a master failover, their restores
/// and a cut-short kernel is not a fault-free run.
#[test]
fn trace_lists_crashes_failovers_and_restores() {
    let dir = tmp_dir("trace-crash");
    let events = [
        r#"{"kind":"map","lane":"node0-sched","t":0,"dur":0.5,"iter":0}"#,
        r#"{"attrs":{"lost_s":0.1},"kind":"crashed-kernel","lane":"node0-gpu0-compute","t":0.2,"dur":0.1}"#,
        r#"{"attrs":{"at_s":0.3,"node":1},"kind":"node-crash","lane":"resilience","t":0.4}"#,
        r#"{"attrs":{"iteration":0,"resume_s":0},"kind":"restore","lane":"resilience","t":0.4}"#,
        r#"{"attrs":{"at_s":0.5},"kind":"master-failover","lane":"resilience","t":0.7}"#,
        r#"{"attrs":{"iteration":0,"resume_s":0},"kind":"restore","lane":"resilience","t":0.7}"#,
    ];
    let body: String = events.iter().map(|e| format!("{e}\n")).collect();
    let meta = format!("{{\"events\":{},\"schema\":\"prs-events-v1\"}}\n", events.len());
    std::fs::write(dir.join("events.jsonl"), meta + &body).unwrap();
    let out = prs(&["trace", "--dir", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!stdout.contains("fault-free"), "{stdout}");
    assert!(stdout.contains("\n5 recovery event(s):\n"), "{stdout}");
    for kind in ["crashed-kernel", "node-crash", "restore", "master-failover"] {
        assert!(stdout.contains(&format!(" {kind:<16} on ")), "{kind} missing:\n{stdout}");
    }
}

#[test]
fn a_file_argument_names_its_bundle() {
    let dir = tmp_dir("file-arg");
    let d = dir.to_str().expect("utf-8 temp path");
    let run = prs(&["run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--obs", d]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    let cal = dir.join("fit.toml");
    let cal = cal.to_str().expect("utf-8 temp path");
    let commands = |b: &str| -> Vec<Vec<String>> {
        [
            vec!["top", b, "--frames", "4"],
            vec!["profile", b],
            vec!["analyze", b],
            vec!["watch", b],
            vec!["trace", "--dir", b, "--flows"],
            vec!["metrics", "--dir", b],
            vec!["advise", "--from-trace", b],
            vec!["calibrate", "--from-trace", b, "--out", cal],
            vec!["top", b, "--snapshot", "0.05"],
        ]
        .iter()
        .map(|c| c.iter().map(|s| s.to_string()).collect())
        .collect()
    };
    let stdout = |cmd: &[String]| {
        let args: Vec<&str> = cmd.iter().map(String::as_str).collect();
        let out = prs(&args);
        assert_eq!(out.status.code(), Some(0), "prs {cmd:?}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let by_dir: Vec<Vec<u8>> = commands(d).iter().map(|c| stdout(c)).collect();
    // The rollup rows' last column is the audit log's misprediction: not
    // zero throughout once `decisions.jsonl` is the file read for it.
    let top = String::from_utf8_lossy(&by_dir[0]);
    let mispredict = top.lines().filter_map(|l| {
        let cols: Vec<&str> = l.split_whitespace().collect();
        (cols.len() == 7 && cols[2].ends_with('%')).then(|| cols[6].parse::<f64>().ok())?
    });
    assert!(mispredict.fold(0.0, f64::max) > 0.0, "no misprediction in the replay:\n{top}");
    // The trace links sends to receives with flow arrows, and the rollup
    // reaches the metrics.
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect("bundle file");
    let trace = read("trace.json");
    for arrow in ["\"ph\": \"s\"", "\"ph\": \"f\""] {
        assert!(trace.contains(arrow), "trace.json has no {arrow} flow event");
    }
    assert!(!read("rollup.jsonl").is_empty(), "rollup.jsonl is empty");
    assert!(read("metrics.prom").contains("prs_rollup_device_util_mean"), "no rollup gauge");
    for file in ["events.jsonl", "decisions.jsonl"] {
        let f = dir.join(file);
        let f = f.to_str().expect("utf-8 temp path");
        for (cmd, want) in commands(f).iter().zip(&by_dir) {
            assert!(stdout(cmd) == *want, "prs {cmd:?} printed other bytes than for the directory");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every recorded chaos trial that holds captures re-assembles into the
/// `postmortem.json` the grid wrote, byte for byte, from the trial dir's
/// files alone. A trial without captures is refused by design.
#[test]
fn recorded_chaos_trials_reassemble_byte_for_byte() {
    let dir = tmp_dir("chaos-reassembly");
    let at = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
    let (rec, report, score) = (at("rec"), at("chaos.json"), at("watch.json"));
    let grid = prs(&[
        "chaos", "--trials", "8", "--seed", "7", "--score-watch", "--record", "--record-out", &rec,
        "--out", &report, "--watch-out", &score,
    ]);
    assert_eq!(grid.status.code(), Some(0), "{}", String::from_utf8_lossy(&grid.stderr));
    let mut trials: Vec<PathBuf> = std::fs::read_dir(&rec)
        .expect("list trials")
        .map(|e| e.expect("trial entry").path())
        .collect();
    trials.sort();
    assert_eq!(trials.len(), 8);
    let mut reassembled = 0;
    for trial in &trials {
        let t = trial.to_str().expect("utf-8 temp path");
        let written = std::fs::read(trial.join("postmortem.json")).expect("the grid's postmortem");
        let has_captures = std::fs::read_dir(trial).expect("list trial").any(|e| {
            e.expect("trial file").file_name().to_string_lossy().starts_with("capture-")
        });
        let out = prs(&["postmortem", t]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if !has_captures {
            assert_eq!(out.status.code(), Some(1), "{t}: {stderr}");
            assert!(stderr.contains("no capture"), "{t}: {stderr}");
            continue;
        }
        assert_eq!(out.status.code(), Some(0), "{t}: {stderr}");
        let again = std::fs::read(trial.join("postmortem.json")).expect("re-assembled postmortem");
        assert!(again == written, "{t}: prs postmortem wrote other bytes than the grid");
        reassembled += 1;
    }
    assert_eq!(reassembled, 7, "trials with captures");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without an incident log, `prs postmortem` anchors one skeleton
/// incident on each capture. A capture name with a control character is
/// still a name (exit 0); a window bound that overflows to infinity is a
/// damaged meta line (exit 1). Both used to panic.
#[test]
fn postmortem_without_incidents_takes_any_capture_meta_line() {
    let event = "{\"dur\":0.2,\"iter\":0,\"kind\":\"map\",\"lane\":\"node0-sched\",\"t\":0.1}";
    let meta = |name: &str, t0: &str| {
        format!(
            "{{\"capture\":\"{name}\",\"events\":1,\"folds\":0,\"incident\":0,\
             \"rollup_period_s\":0.5,\"schema\":\"prs-capture-v1\",\"t0\":{t0},\"t1\":1}}\n{event}\n"
        )
    };
    for (name, capture, code, says) in [
        ("control-char", meta("capture-0\\u0001", "0"), 0, "incident #0"),
        ("infinite-t0", meta("capture-0", "1e999"), 1, "capture line 1: meta line: \"t0\" is not finite"),
    ] {
        let dir = tmp_dir(&format!("postmortem-{name}"));
        std::fs::write(dir.join("capture-0.jsonl"), capture).expect("write capture");
        let out = prs(&["postmortem", dir.to_str().expect("utf-8 temp path")]);
        let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(code), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stdout.contains(says) || stderr.contains(says), "{name}: want {says:?}, got {stdout}{stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Record with `--calibrate online`, analyze, fit a profile with
/// `prs calibrate`, and feed the fitted file back to `run` and `advise`.
#[test]
fn online_calibration_round_trips_through_a_profile_file() {
    let dir = tmp_dir("calibrate-round-trip");
    let at = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
    let (obs, fitted) = (at("obs"), at("fitted.toml"));
    let run = ["run", "--app", "cmeans", "--nodes", "2", "--points", "20000"];
    for cmd in [
        [&run[..], &["--iterations", "4", "--calibrate", "online", "--obs", &obs]].concat(),
        vec!["analyze", &obs],
        vec!["calibrate", "--from-trace", &obs, "-o", &fitted],
        [&run[..], &["--iterations", "2", "--profile-file", &fitted]].concat(),
        vec!["advise", "--ai", "500", "--residency", "resident", "--profile-file", &fitted],
    ] {
        let out = prs(&cmd);
        assert_eq!(out.status.code(), Some(0), "prs {cmd:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
    for file in ["obs/report.json", "obs/critical_path.json", "fitted.toml"] {
        let len = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
        assert!(len > 0, "{file} missing or empty");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `prs chaos`'s default grids at seed 7 (32 trials scored by the
/// watchdog, 16 churn trials) under the calendar and the parallel
/// engine: every invariant holds, speculation reconciles, the watchdog
/// meets its floors without alerting on a fault-free trial, and each
/// report is byte for byte the one `epoch_pins::{chaos_grid,
/// churn_grid}` pins for the in-process grid.
#[test]
fn chaos_grids_pass_and_hold_their_pins_under_both_engines() {
    for engine in ["calendar", "parallel"] {
        let dir = tmp_dir(&format!("grids-{engine}"));
        let at = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
        let (chaos, score, churn) = (at("chaos.json"), at("watch.json"), at("churn.json"));
        let grid = ["chaos", "--seed", "7", "--engine", engine];
        for cmd in [
            [&grid[..], &["--trials", "32", "--score-watch", "--out", &chaos, "--watch-out", &score]].concat(),
            [&grid[..], &["--churn", "--trials", "16", "--out", &churn]].concat(),
        ] {
            let out = prs(&cmd);
            assert_eq!(out.status.code(), Some(0), "prs {cmd:?}: {}", String::from_utf8_lossy(&out.stderr));
        }
        let read = |path: &str| std::fs::read_to_string(path).expect("report written");
        let (chaos, score, churn) = (read(&chaos), read(&score), read(&churn));
        for (doc, line) in [
            (&chaos, "\"all_passed\": true"),
            (&chaos, "\"speculation_reconciles\": true"),
            (&churn, "\"all_passed\": true"),
            (&score, "\"meets_floors\": true"),
            (&score, "\"fault_free_alerts\": 0"),
        ] {
            assert!(doc.contains(line), "{engine}: a report lacks {line}");
        }
        assert_eq!([fnv1a(chaos.as_bytes()), fnv1a(churn.as_bytes())], GRID_PINS, "{engine}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `chaos_report.json` and `churn_report.json` at the defaults: the
/// values of `epoch_pins`' `CHAOS_REPORT` and `CHURN_REPORT`.
const GRID_PINS: [u64; 2] = [0x72a9c3573b0b15b3, 0xd881d89ba027dcc0];
