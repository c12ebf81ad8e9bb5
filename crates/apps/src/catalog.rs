//! The app catalog: one [`Entry`] per `--app`, the one place `prs run`,
//! `prs sweep` and the nine-app pins build an app from. An entry holds
//! the app's name, its summary label, its shape check and its job:
//! `build(shape, seed)`, the driver call and the summary line. The job's
//! [`DriverClass`] is read off its type — it is handed the one driver its
//! class allows, whose `run` is bound on that class's runtime trait — so
//! no entry can declare one driver and call another. Its fn pointer is
//! the only type erasure: no `dyn` in the map.

use crate::{BatchFft, CMeans, CsrMatrix, DaKmeans, Dgemm, Gemv, Gmm, KMeans, Spmv, WordCount};
use prs_core::{
    run_epochs, run_iterative_observed, run_job_observed, CheckpointableApp, ClusterSpec,
    EpochOptions, IterativeApp, JobConfig, JobError, JobMetrics, Key, Obs, SpmdApp,
};
use prs_data::gaussian::clustering_points;
use prs_data::{MatrixF32, SplitMix64};
use std::fmt::{self, Debug, Write};
use std::sync::Arc;

/// `prs run`'s `--points`, `--dims` and `--clusters`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Records: points, rows, tokens or signals.
    pub points: usize,
    /// Dimensions or columns.
    pub dims: usize,
    /// Clusters, mixture components or hundreds of words; 0 reads as 1.
    pub clusters: usize,
}

/// Which driver runs an app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverClass {
    /// One map/shuffle/reduce pass ([`run_job_observed`]).
    OnePass,
    /// Iterates to convergence ([`run_iterative_observed`]).
    Iterative,
    /// Iterates, and may run under the elastic epoch driver ([`run_epochs`]).
    Checkpointable,
}

/// How a job is driven.
pub enum Drive {
    /// The class's own driver, recording into `Obs`.
    Plain(Obs),
    /// The elastic epoch driver; only a checkpointable app takes it.
    Elastic(EpochOptions),
}

/// A finished job.
#[derive(Debug)]
pub struct Ran {
    /// What the job measured.
    pub metrics: JobMetrics,
    /// The entry's label; `<label> (elastic)` under the epoch driver.
    pub label: String,
    /// The summary line; `elastic: <ledger>; <summary>` under the epoch driver.
    pub summary: String,
    /// 64-bit FNV-1a over the `Debug` rendering of the final outputs. A
    /// float's `Debug` form reads back to the same bits, so equal digests
    /// mean bit-equal outputs.
    pub digest: u64,
}

/// One app.
#[derive(Debug)]
pub struct Entry {
    /// The `--app` name.
    pub name: &'static str,
    /// The label of a run's summary and `--json` document.
    pub label: &'static str,
    /// Whether the app can be built at a shape; the error names the option.
    pub check: fn(Shape) -> Result<(), String>,
    job: Job,
}

type Check = fn(Shape) -> Result<(), String>;
type Done = Result<(JobMetrics, String, u64), JobError>;
type Summary<A> = fn(&A, &[(Key, <A as SpmdApp>::Output)]) -> String;

/// An entry's job: builds the app and hands it to the driver of its class.
#[derive(Debug)]
enum Job {
    OnePass(fn(Shape, u64, OnePass) -> Done),
    Iterative(fn(Shape, u64, Iterative) -> Done),
    Checkpointable(fn(Shape, u64, Checkpointable) -> Done),
}

/// The driver of each class: the cluster, the config, and the recording
/// (a checkpointable app: how it is driven). Each has one `run`.
struct OnePass<'a>(&'a ClusterSpec, JobConfig, Obs);
struct Iterative<'a>(&'a ClusterSpec, JobConfig, Obs);
struct Checkpointable<'a>(&'a ClusterSpec, JobConfig, Drive);

impl Entry {
    const fn new(name: &'static str, label: &'static str, check: Check, job: Job) -> Self {
        Entry { name, label, check, job }
    }

    /// The driver the app runs under.
    pub fn class(&self) -> DriverClass {
        match self.job {
            Job::OnePass(_) => DriverClass::OnePass,
            Job::Iterative(_) => DriverClass::Iterative,
            Job::Checkpointable(_) => DriverClass::Checkpointable,
        }
    }

    /// Builds the app at `shape` from `seed` and runs it on `spec`. An app
    /// that is not checkpointable refuses [`Drive::Elastic`].
    pub fn run(
        &self,
        shape: Shape,
        seed: u64,
        spec: &ClusterSpec,
        config: JobConfig,
        drive: Drive,
    ) -> Result<Ran, JobError> {
        let label = match drive {
            Drive::Plain(_) => self.label.to_string(),
            Drive::Elastic(_) => format!("{} (elastic)", self.label),
        };
        let (metrics, summary, digest) = match (&self.job, drive) {
            (Job::Checkpointable(job), d) => job(shape, seed, Checkpointable(spec, config, d)),
            (Job::Iterative(job), Drive::Plain(o)) => job(shape, seed, Iterative(spec, config, o)),
            (Job::OnePass(job), Drive::Plain(o)) => job(shape, seed, OnePass(spec, config, o)),
            (_, Drive::Elastic(_)) => {
                let msg = format!("--app {} is not checkpointable", self.name);
                return Err(JobError::InvalidConfig(msg));
            }
        }?;
        Ok(Ran { metrics, label, summary, digest })
    }
}

/// Every app, in `prs help` order.
pub static CATALOG: [Entry; 9] = [
    Entry::new("cmeans", "C-means", more_points, Job::Checkpointable(|s, seed, d| {
        let app = CMeans::new(points(s, seed), k(s), 2.0, 1e-3, seed);
        d.run(app, |app, _| format!("final J_m = {:.4e}", last(app.objective_history())))
    })),
    Entry::new("kmeans", "K-means", more_points, Job::Checkpointable(|s, seed, d| {
        let app = KMeans::new(points(s, seed), k(s), 1e-3, seed);
        d.run(app, |app, _| format!("final SSE = {:.4e}", last(app.objective_history())))
    })),
    Entry::new("gmm", "GMM", |s| more_points(s).and(some_dims(s)), Job::Iterative(|s, seed, d| {
        let app = Gmm::new(points(s, seed), k(s), 1e-6, seed);
        d.run(app, |app, _| format!("final logL = {:.4e}", last(app.log_likelihood_history())))
    })),
    Entry::new("da", "DA clustering", more_points, Job::Checkpointable(|s, seed, d| {
        let app = DaKmeans::new(points(s, seed), k(s), 0.85, 1e-3);
        d.run(app, |app, _| format!("final T = {:.4e}", app.temperature()))
    })),
    Entry::new("gemv", "GEMV", |_| Ok(()), Job::OnePass(|s, seed, d| {
        let mut rng = SplitMix64::new(seed);
        let a = MatrixF32::from_fn(s.points, s.dims, |_, _| rng.next_f32() - 0.5);
        let x = (0..s.dims).map(|_| rng.next_f32()).collect();
        let app = Gemv::new(Arc::new(a), Arc::new(x));
        d.run(app, |app, out| format!("|y| = {} elements", app.assemble(out).len()))
    })),
    Entry::new("spmv", "SpMV", |_| Ok(()), Job::OnePass(|s, seed, d| {
        let a = CsrMatrix::synthetic(s.points, s.dims.max(1), 8, seed);
        let mut rng = SplitMix64::new(seed ^ 1);
        let x = (0..s.dims.max(1)).map(|_| rng.next_f32()).collect();
        d.run(Spmv::new(Arc::new(a), Arc::new(x)), |app, out| {
            let (y, expect) = (app.assemble(out), app.a.spmv_ref(&app.x));
            let ok = y.iter().zip(&expect).all(|(a, b)| (a - b).abs() <= 1e-4 * b.abs().max(1.0));
            format!("reference check: {}", if ok { "ok" } else { "FAILED" })
        })
    })),
    Entry::new("dgemm", "DGEMM", some_dims, Job::OnePass(|s, seed, d| {
        let mut rng = SplitMix64::new(seed);
        let a = MatrixF32::from_fn(s.points, s.dims, |_, _| rng.next_f32() - 0.5);
        let b = MatrixF32::from_fn(s.dims, s.dims, |_, _| rng.next_f32() - 0.5);
        let app = Dgemm::new(Arc::new(a), Arc::new(b));
        d.run(app, |app, _| format!("C is {} x {}", app.a.rows(), app.b.cols()))
    })),
    Entry::new("wordcount", "WordCount", vocabulary, Job::OnePass(|s, seed, d| {
        let app = WordCount::synthetic(s.points, k(s) as u32 * WORDS, seed);
        d.run(app, |app, _| format!("vocab = {}", app.vocab()))
    })),
    Entry::new("fft", "BatchFFT", |_| Ok(()), Job::OnePass(|s, seed, d| {
        let app = BatchFft::synthetic(s.points.max(1), s.dims.next_power_of_two().max(64), seed);
        d.run(app, |app, out| {
            let expected = app.len as f64 * app.total_time_energy();
            let spectral: f64 = out.iter().map(|(_, e)| e).sum();
            let ok = (spectral - expected).abs() < 1e-6 * expected.abs().max(1.0);
            format!("Parseval check: {}", if ok { "ok" } else { "FAILED" })
        })
    })),
];

/// The entry called `name`; the error lists every name.
pub fn find(name: &str) -> Result<&'static Entry, String> {
    let unknown = || format!("unknown app '{name}' (try: {})", names(None).join(", "));
    CATALOG.iter().find(|e| e.name == name).ok_or_else(unknown)
}

/// The names of the entries of `class`, or of every entry.
pub fn names(class: Option<DriverClass>) -> Vec<&'static str> {
    CATALOG.iter().filter(|e| class.is_none_or(|c| e.class() == c)).map(|e| e.name).collect()
}

impl OnePass<'_> {
    fn run<A: SpmdApp<Output: Debug>>(self, app: A, summary: Summary<A>) -> Done {
        let app = Arc::new(app);
        let r = run_job_observed(self.0, app.clone(), self.1, self.2)?;
        Ok((r.metrics, summary(&app, &r.outputs), digest(&r.outputs)))
    }
}

impl Iterative<'_> {
    fn run<A: IterativeApp<Output: Debug>>(self, app: A, summary: Summary<A>) -> Done {
        let app = Arc::new(app);
        let r = run_iterative_observed(self.0, app.clone(), self.1, self.2)?;
        Ok((r.metrics, summary(&app, &r.outputs), digest(&r.outputs)))
    }
}

impl Checkpointable<'_> {
    fn run<A: CheckpointableApp<Output: Debug>>(self, app: A, summary: Summary<A>) -> Done {
        let Checkpointable(spec, config, drive) = self;
        let epochs = match drive {
            Drive::Plain(obs) => return Iterative(spec, config, obs).run(app, summary),
            Drive::Elastic(epochs) => epochs,
        };
        let app = Arc::new(app);
        let out = run_epochs(spec, app.clone(), config, epochs)?;
        let m = &out.membership;
        let line = format!(
            "elastic: {} epoch(s), {} -> {} node(s), joins={} (retries={}) drains={} \
             evicts={} handoffs={} grow={} shrink={}; {}",
            out.attempts.len(),
            spec.len(),
            out.cluster_sizes.last().map_or(spec.len(), |&(_, n)| n),
            m.joins,
            m.join_retries,
            m.drains,
            m.evictions,
            m.handoffs,
            m.grow_decisions,
            m.shrink_decisions,
            summary(&app, &out.outputs),
        );
        Ok((out.metrics, line, digest(&out.outputs)))
    }
}

/// 64-bit FNV-1a over what `{:?}` writes for `outputs`, hashed as it is
/// written rather than kept.
fn digest(outputs: &impl Debug) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{outputs:?}").expect("hashing never fails");
    h.0
}

/// The clustering apps seed their model from the data, so they need more
/// points than clusters.
fn more_points(s: Shape) -> Result<(), String> {
    let (k, n) = (k(s), s.points);
    if k >= n {
        return Err(format!("--clusters {k} needs at least {} points, got --points {n}", k + 1));
    }
    Ok(())
}

/// GMM's and DGEMM's arithmetic intensity grows with the dimension; at
/// zero dimensions there is none.
fn some_dims(s: Shape) -> Result<(), String> {
    if s.dims == 0 {
        return Err("--dims 0 leaves the app no arithmetic intensity; give 1 or more".to_string());
    }
    Ok(())
}

/// Word count's vocabulary is [`WORDS`] per cluster in a `u32`; past this
/// the product would wrap to some other size.
fn vocabulary(s: Shape) -> Result<(), String> {
    let (k, most) = (k(s), (u32::MAX / WORDS) as usize);
    if k > most {
        return Err(format!(
            "--clusters {k} is too many for --app wordcount: at most {most} \
             ({WORDS} vocabulary words each)"
        ));
    }
    Ok(())
}

const WORDS: u32 = 100;

fn k(s: Shape) -> usize {
    s.clusters.max(1)
}

fn points(s: Shape, seed: u64) -> Arc<MatrixF32> {
    Arc::new(clustering_points(s.points, s.dims, k(s), seed))
}

fn last(history: Vec<f64>) -> f64 {
    history.last().copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roofline::profiles::DeviceProfile;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn micro(nodes: usize) -> ClusterSpec {
        let net = netsim::NetworkParams::infiniband_qdr();
        ClusterSpec::homogeneous(nodes, DeviceProfile::micro_node(), net)
    }

    /// Every shape an entry's check lets through builds and runs without
    /// a panic: one iteration on two micro nodes either finishes or is
    /// refused as an invalid job (an app with no input).
    #[test]
    fn every_accepted_shape_runs_without_panicking() {
        let config = JobConfig::static_analytic().with_iterations(1);
        let spec = micro(2);
        for e in &CATALOG {
            for points in [0, 1, 2, 3, 40] {
                for dims in [0, 1, 2] {
                    for clusters in [0, 1, 2] {
                        let shape = Shape { points, dims, clusters };
                        if (e.check)(shape).is_err() {
                            continue;
                        }
                        let drive = Drive::Plain(Obs::disabled());
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            e.run(shape, 7, &spec, config, drive).map(|r| r.summary)
                        }));
                        assert!(
                            matches!(run, Ok(Ok(_)) | Ok(Err(JobError::InvalidConfig(_)))),
                            "--app {} at {shape:?}: {run:?}",
                            e.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_class_follows_the_app() {
        assert_eq!(
            names(Some(DriverClass::Checkpointable)),
            ["cmeans", "kmeans", "da"]
        );
        assert_eq!(names(Some(DriverClass::Iterative)), ["gmm"]);
        assert_eq!(names(None).len(), CATALOG.len());
        let shape = Shape { points: 40, dims: 2, clusters: 2 };
        let elastic = || {
            Drive::Elastic(EpochOptions {
                membership: Default::default(),
                autoscale: None,
                obs: Obs::disabled(),
            })
        };
        let config = JobConfig::static_analytic().with_iterations(1);
        for e in &CATALOG {
            let run = e.run(shape, 7, &micro(2), config, elastic());
            match e.class() {
                DriverClass::Checkpointable => {
                    let ran = run.expect("a checkpointable app runs elastic");
                    assert_eq!(ran.label, format!("{} (elastic)", e.label));
                    assert!(ran.summary.starts_with("elastic: 1 epoch(s), 2 -> 2 node(s)"));
                }
                _ => assert!(matches!(run, Err(JobError::InvalidConfig(_))), "{}", e.name),
            }
        }
    }
}
