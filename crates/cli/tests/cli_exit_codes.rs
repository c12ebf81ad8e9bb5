//! Exit-code contract for the artifact-reading subcommands: a missing or
//! empty `--obs` bundle must fail loudly (non-zero, message on stderr),
//! never print a half-empty report with exit 0. Runs the real binary via
//! `CARGO_BIN_EXE_prs`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn prs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prs"))
        .args(args)
        .output()
        .expect("prs binary runs")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prs-exit-codes-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
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
    for cmd in [
        vec!["trace"],
        vec!["trace", "--bogus", "x"],
        vec!["chaos", "--rules", "rules.toml"], // --rules requires --score-watch
        vec!["watch"],
        vec!["profile"],                     // missing bundle dir
        vec!["profile", "x", "--bogus", "y"],
        vec!["profile", "x", "--period", "0"], // period must be positive
        vec!["diff"],                        // needs exactly two bundles
        vec!["diff", "only-one"],
        vec!["diff", "a", "b", "--bogus"],
        vec!["postmortem"],                  // missing dir
        vec!["postmortem", "x", "--bogus"],
        vec!["chaos", "--record"],           // captures need the scored grid
        vec!["chaos", "--record-out", "d"],  // needs --record
        vec!["chaos", "--churn", "--score-watch"], // churn grid stands alone
        vec!["chaos", "--churn", "--record", "--score-watch"],
        vec!["run", "--record-budget", "0"], // budget must be at least 1
        vec!["run", "--membership", "p.toml", "--app", "gemv"], // elastic needs cmeans
        vec!["run", "--autoscale", "--app", "kmeans"],
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
fn running_out_of_process_stacks_is_an_error_line_and_exit_one() {
    // 1.5 GB of address space holds some 1400 one-MiB stacks; the job
    // wants 5001. This used to be a panic in `coro.rs` (exit 101) that,
    // with a backtrace asked for, never exited at all — hence the watchdog.
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
        "exec \"$0\" run --app cmeans --nodes 1000 --profile micro \
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
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert!(
        matches!(lines[..], [line] if line.starts_with("error: ")
            && line.contains("address space")
            && line.contains("vm.max_map_count")),
        "one `error:` line naming the limits, got: {stderr}"
    );
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
    // A drain plan through the real binary: the run succeeds, reports the
    // elastic epoch count, and the --obs bundle's decision audit carries
    // the membership scale lines.
    let dir = tmp_dir("membership");
    let plan = dir.join("plan.toml");
    std::fs::write(&plan, "seed = 11\n\n[[drain]]\nnode = 1\nat_s = 0.05\ndeadline_s = 10.0\n")
        .expect("write plan");
    let d = dir.to_str().expect("utf-8 temp path");
    let out = prs(&[
        "run", "--nodes", "2", "--points", "20000", "--iterations", "3",
        "--membership", plan.to_str().expect("utf-8 plan path"), "--obs", d,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("elastic:"), "run summary lacks the elastic line: {stdout}");
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
    assert!(
        events.contains("\"membership\""),
        "event bus lacks the membership lane:\n{events}"
    );
    let metrics = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
    assert!(
        metrics.contains("prs_membership_total"),
        "membership counters missing from metrics.prom"
    );
    // A malformed plan is a usage error, caught before any run starts.
    std::fs::write(&plan, "[[drain]]\nnode = 1\nwhen = 0.5\n").expect("rewrite plan");
    let bad = prs(&["run", "--membership", plan.to_str().expect("utf-8 plan path")]);
    assert_eq!(bad.status.code(), Some(2), "malformed plan must exit 2");
    let _ = std::fs::remove_dir_all(&dir);
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
    // The profiler and the differ both accept the bundle they just wrote.
    let profile = prs(&["profile", d]);
    assert_eq!(
        profile.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&profile.stderr)
    );
    let selfdiff = prs(&["diff", d, d]);
    assert_eq!(
        selfdiff.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&selfdiff.stderr)
    );
    assert!(dir.join("diff.json").is_file(), "diff.json written into the candidate bundle");
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

#[test]
fn readers_reject_a_truncated_bundle() {
    // A bundle cut short must not be analysed as if it were whole, whether
    // the cut falls inside a line (bad JSON) or exactly between two lines
    // (every line still parses; only the meta line's count gives it away).
    let whole = tmp_dir("truncated-whole");
    let w = whole.to_str().expect("utf-8 temp path");
    let run = prs(&["run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--obs", w]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
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

    let damaged_file = |name: &str, file: &str, content: &str| {
        let dir = tmp_dir(name);
        for entry in std::fs::read_dir(&whole).expect("list bundle") {
            let path = entry.expect("bundle entry").path();
            std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
        }
        std::fs::write(dir.join(file), content).expect("write the damaged file");
        dir
    };
    let damaged = |name: &str, events: &str| damaged_file(name, "events.jsonl", events);
    let commands = |d: &str, cal: &str| -> Vec<Vec<String>> {
        [
            vec!["analyze", d],
            vec!["watch", d],
            vec!["profile", d],
            vec!["top", d, "--frames", "2"],
            vec!["calibrate", "--from-trace", d, "--out", cal],
        ]
        .iter()
        .map(|c| c.iter().map(|s| s.to_string()).collect())
        .collect()
    };
    let run_all = |dir: &PathBuf| -> Vec<(String, Output)> {
        let d = dir.to_str().expect("utf-8 temp path");
        let cal = dir.join("fit.toml");
        commands(d, cal.to_str().expect("utf-8 temp path"))
            .into_iter()
            .map(|cmd| {
                let args: Vec<&str> = cmd.iter().map(String::as_str).collect();
                (cmd.join(" "), prs(&args))
            })
            .collect()
    };

    let dir = damaged("truncated-boundary", &at_line_boundary);
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

    let dir = damaged("truncated-midline", &inside_a_line);
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
    let dir = damaged("truncated-no-meta", &without_meta);
    for (cmd, out) in run_all(&dir) {
        assert_eq!(
            out.status.code(),
            Some(0),
            "prs {cmd} without a meta line: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The audit log is held to its meta line the same way: the readers
    // that join decisions to events refuse half a `decisions.jsonl`, and
    // `watch` leaves the verdict files as the run wrote them.
    let decisions = std::fs::read_to_string(whole.join("decisions.jsonl")).expect("decisions.jsonl");
    let lines: Vec<&str> = decisions.lines().collect();
    let total = lines.len() - 1;
    assert!(lines[0].contains(&format!("\"decisions\":{total}")), "meta line: {}", lines[0]);
    let kept = total / 2;
    let at_line_boundary = lines[..=kept].join("\n") + "\n";
    let inside_a_line = decisions[..at_line_boundary.len() + lines[kept + 1].len() / 2].to_string();
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
        let dir = damaged_file(name, "decisions.jsonl", content);
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
