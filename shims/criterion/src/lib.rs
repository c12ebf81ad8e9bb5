//! Hermetic shim of `criterion`.
//!
//! Implements the harness API surface used by the workspace's benches
//! (`benchmark_group`, `bench_with_input`, `bench_function`,
//! `BenchmarkId`, `criterion_group!` / `criterion_main!`). Instead of
//! criterion's statistical sampling it runs each closure a small fixed
//! number of iterations and prints the mean wall-clock time — enough to
//! exercise the bench code paths and give a rough number offline.

use std::fmt;
use std::hint::black_box as std_black_box;
use std::time::Instant;

/// Re-export so `criterion::black_box` keeps working.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifier for a bench case.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    pub fn new<D: fmt::Display>(function_name: &str, parameter: D) -> Self {
        Self {
            name: format!("{function_name}/{parameter}"),
        }
    }

    pub fn from_parameter<D: fmt::Display>(parameter: D) -> Self {
        Self {
            name: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Timing loop handed to bench closures.
pub struct Bencher {
    iters: u32,
    last_mean_ns: f64,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // One warmup pass, then timed passes.
        std_black_box(f());
        let start = Instant::now();
        for _ in 0..self.iters {
            std_black_box(f());
        }
        self.last_mean_ns = start.elapsed().as_nanos() as f64 / self.iters as f64;
    }
}

fn report(label: &str, mean_ns: f64, throughput: Option<&Throughput>) {
    let (value, unit) = if mean_ns >= 1e9 {
        (mean_ns / 1e9, "s")
    } else if mean_ns >= 1e6 {
        (mean_ns / 1e6, "ms")
    } else if mean_ns >= 1e3 {
        (mean_ns / 1e3, "µs")
    } else {
        (mean_ns, "ns")
    };
    let rate = match throughput {
        Some(Throughput::Elements(n)) => format!("  {:>8.3} Melem/s", *n as f64 * 1e3 / mean_ns),
        Some(Throughput::Bytes(n)) => format!("  {:>8.3} MB/s", *n as f64 * 1e3 / mean_ns),
        None => String::new(),
    };
    println!("bench: {label:<48} {value:>10.3} {unit}{rate}");
}

/// A named group of benches (shim of criterion's `BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    name: String,
    iters: u32,
    /// Work per iteration of the benches that follow, for the rate column.
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        // Criterion's sample_size is a statistical knob; here it bounds
        // the timing-loop iteration count.
        self.iters = (n as u32).clamp(1, 1000);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            iters: self.iters,
            last_mean_ns: 0.0,
        };
        f(&mut b);
        report(
            &format!("{}/{}", self.name, id),
            b.last_mean_ns,
            self.throughput.as_ref(),
        );
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            iters: self.iters,
            last_mean_ns: 0.0,
        };
        f(&mut b, input);
        report(
            &format!("{}/{}", self.name, id),
            b.last_mean_ns,
            self.throughput.as_ref(),
        );
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn finish(self) {}
}

/// Shim of criterion's `Throughput`: the work one iteration does, printed
/// as a rate after the mean time.
#[derive(Debug, Clone)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Shim of the `Criterion` harness handle.
pub struct Criterion {
    default_iters: u32,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { default_iters: 3 }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            iters: self.default_iters,
            throughput: None,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            iters: self.default_iters,
            last_mean_ns: 0.0,
        };
        f(&mut b);
        report(&id.to_string(), b.last_mean_ns, None);
        self
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(2);
        g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        g.bench_with_input(BenchmarkId::new("square", 7), &7u64, |b, &n| {
            b.iter(|| black_box(n * n))
        });
        g.finish();
    }

    #[test]
    fn harness_api_runs() {
        let mut c = Criterion::default();
        sample_bench(&mut c);
        c.bench_function("toplevel", |b| b.iter(|| black_box(2 + 2)));
    }
}
