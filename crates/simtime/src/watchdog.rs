//! Test support, shared by the unit tests and (via `#[path]`) the
//! integration tests: a wall-clock watchdog, so a lost wake-up fails in
//! seconds instead of hanging the suite.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

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
