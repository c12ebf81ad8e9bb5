//! Child processes: CPU pinning, `wait4` resource usage and thread
//! sampling.
//!
//! The workspace vendors no `libc` crate, so the three libc calls the
//! harness needs are declared by hand with their 64-bit Linux layouts.

use crate::parse::proc_status_field;
use std::fs::File;
use std::io;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark harness declares 64-bit Linux libc layouts by hand");

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

const WNOHANG: i32 = 1;

fn mask_of(cpus: &[usize]) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set[c / 64] |= 1 << (c % 64);
    }
    set
}

fn set_affinity(set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` points to 128 readable bytes, the size passed; pid 0
    // is the calling thread; the call has no other memory effects.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Where children run. The harness pins itself to the first CPU it is
/// allowed on and every measured child to the last, so a child's
/// thread hand-offs never cross cores (the 2-2.5x bimodal noise source
/// measured on this box) and the harness never competes with it.
#[derive(Debug, Clone)]
pub struct Cpus {
    allowed: Vec<usize>,
}

impl Cpus {
    /// Reads the allowed CPUs and pins the calling (harness) thread.
    pub fn pin_harness() -> io::Result<Cpus> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is 128 writable bytes, the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        let allowed: Vec<usize> = (0..1024)
            .filter(|c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        if allowed.is_empty() {
            return Err(io::Error::other("empty CPU affinity mask"));
        }
        set_affinity(&mask_of(&allowed[..1]))?;
        Ok(Cpus { allowed })
    }

    pub fn harness_cpu(&self) -> usize {
        self.allowed[0]
    }

    pub fn child_cpu(&self) -> usize {
        *self.allowed.last().expect("non-empty by construction")
    }

    pub fn count(&self) -> usize {
        self.allowed.len()
    }
}

/// Which CPUs a child may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    /// The one child CPU: every end-to-end number is taken this way.
    One,
    /// Every allowed CPU: only for `simtime.cross_core_penalty_ratio`.
    All,
}

/// One child command: program, arguments, extra environment.
#[derive(Debug, Clone)]
pub struct Cmd {
    pub program: PathBuf,
    pub args: Vec<String>,
    pub env: Vec<(String, String)>,
}

/// What one finished child cost.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Host seconds from spawn to reaped exit.
    pub wall_s: f64,
    /// Exit code, or -1 when a signal ended the child.
    pub exit_code: i32,
    pub user_s: f64,
    pub sys_s: f64,
    pub maxrss_kib: u64,
    pub ctx_switches: u64,
    /// Largest `Threads:` seen in `/proc/<pid>/status`; only sampled runs.
    pub peak_threads: Option<u64>,
    pub stdout: String,
}

fn seconds(t: Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 / 1e6
}

/// Runs `cmd` to completion with stdout/stderr redirected to
/// `<log_stem>.stdout` / `.stderr` (no pipes, so no reader threads).
/// With `sample_threads` the wait polls every 2 ms and samples the
/// child's thread count; otherwise it blocks in `wait4`.
pub fn run(
    cmd: &Cmd,
    cpus: &Cpus,
    pin: Pin,
    log_stem: &Path,
    sample_threads: bool,
) -> io::Result<ChildRun> {
    // Appended, not `with_extension`: step names contain dots.
    let log = |suffix: &str| PathBuf::from(format!("{}.{suffix}", log_stem.display()));
    let stdout_path = log("stdout");
    let mut command = Command::new(&cmd.program);
    command
        .args(&cmd.args)
        .envs(cmd.env.iter().map(|(k, v)| (k, v)))
        // A stray scale factor would silently resize the experiment binaries.
        .env_remove("PRS_SCALE")
        .stdin(Stdio::null())
        .stdout(File::create(&stdout_path)?)
        .stderr(File::create(log("stderr"))?);
    let set = match pin {
        Pin::One => mask_of(&[cpus.child_cpu()]),
        Pin::All => mask_of(&cpus.allowed),
    };
    // SAFETY: the hook runs in the forked child before exec and only
    // makes the async-signal-safe `sched_setaffinity` system call on a
    // mask captured by value.
    unsafe {
        command.pre_exec(move || set_affinity(&set));
    }

    let start = Instant::now();
    let child = command.spawn()?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    let mut peak_threads = None;
    loop {
        let options = if sample_threads { WNOHANG } else { 0 };
        // SAFETY: `status` and `usage` are valid for writes of their
        // types; `pid` is our own unreaped child (std's `Child` is never
        // waited on or killed, so nobody else reaps it).
        let rc = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if rc == pid {
            break;
        }
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        // rc == 0: still running (sampled mode only).
        if let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
            let n = proc_status_field(&text, "Threads");
            peak_threads = peak_threads.max(n);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let wall_s = start.elapsed().as_secs_f64();
    // The child is reaped; dropping the handle neither waits nor kills.
    drop(child);

    let exited_normally = status & 0x7f == 0;
    Ok(ChildRun {
        wall_s,
        exit_code: if exited_normally {
            (status >> 8) & 0xff
        } else {
            -1
        },
        user_s: seconds(usage.ru_utime),
        sys_s: seconds(usage.ru_stime),
        maxrss_kib: usage.ru_maxrss.max(0) as u64,
        ctx_switches: (usage.ru_nvcsw + usage.ru_nivcsw).max(0) as u64,
        peak_threads,
        stdout: String::from_utf8_lossy(&std::fs::read(&stdout_path)?).into_owned(),
    })
}
