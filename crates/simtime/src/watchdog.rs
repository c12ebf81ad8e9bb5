//! Test support, shared by the unit tests and (via `#[path]`) the
//! integration tests: a wall-clock watchdog, so a lost wake-up fails in
//! seconds instead of hanging the suite, and a census of the OS threads
//! backing simulation processes.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Generous next to the milliseconds these tests take, short next to a CI
/// job timeout.
const LIMIT: Duration = Duration::from_secs(60);

/// Runs `f` on its own thread and returns its result, re-raising its panic;
/// panics itself if `f` has not finished within [`LIMIT`].
pub fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(LIMIT) {
        Ok(v) => {
            worker.join().expect("worker already delivered its result");
            v
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("watchdog: still running after {LIMIT:?} — a lost wake-up?")
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("worker dropped its sender"))
        }
    }
}

/// Asserts that no thread named `sim:<prefix>…` is left in this process.
/// Tests run concurrently, so each passes a process-name prefix of its own.
/// A joined thread can linger in `/proc` for a moment, hence the retry.
pub fn assert_no_sim_threads(prefix: &str) {
    let wanted = format!("sim:{prefix}");
    let alive = || -> Vec<String> {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return Vec::new(); // no procfs: nothing to check here
        };
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
            .filter(|comm| comm.starts_with(&wanted))
            .collect()
    };
    let start = Instant::now();
    while !alive().is_empty() {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "threads outlived Sim::run: {:?}",
            alive()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
