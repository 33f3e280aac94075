//! Offline stand-in for the `criterion` crate.
//!
//! Implements the measuring surface the workspace's benches use —
//! `criterion_group!`/`criterion_main!`, benchmark groups, `iter` /
//! `iter_batched`, throughput annotation — with real wall-clock measurement
//! (calibrated warm-up, fixed sample count, median/mean reporting). Results
//! are additionally accumulated in a process-global registry so bench
//! binaries can post-process them (e.g. the symbolic bench writes
//! `BENCH_symbolic.json` with a per-stage table).

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value sink, like `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One finished measurement, kept in the global registry.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark group name (or "" for bare `bench_function`).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: f64,
    /// Elements-per-iteration annotation, if the group set a throughput.
    pub throughput_elements: Option<u64>,
}

static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Snapshot of every measurement taken so far in this process.
pub fn records() -> Vec<BenchRecord> {
    RECORDS.lock().unwrap().clone()
}

fn push_record(r: BenchRecord) {
    RECORDS.lock().unwrap().push(r);
}

/// Batch sizing hint for [`Bencher::iter_batched`] (ignored: every batch
/// re-runs its setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One invocation per batch.
    PerIteration,
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Logical elements processed per iteration (flops, entries, …).
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{function}/{parameter}") }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Top-level harness configuration and entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Target total measuring time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up time before sampling starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// No-op (kept for signature compatibility).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), throughput: None }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_benchmark(self, "", id, None, |b| f(b));
        self
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark a closure receiving a borrowed input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(self.criterion, &self.name, &id.id, self.throughput, |b| f(b, input));
        self
    }

    /// Benchmark a closure with no input.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_benchmark(self.criterion, &self.name, id, self.throughput, |b| f(b));
        self
    }

    /// Close the group (printing is per-benchmark; nothing else to do).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; runs and times the measured routine.
pub struct Bencher {
    iters_per_sample: u64,
    /// Accumulated per-sample durations of the *measured* code only.
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            black_box(routine());
        }
        self.samples.push(start.elapsed());
    }

    /// Time `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut measured = Duration::ZERO;
        for _ in 0..self.iters_per_sample {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            measured += start.elapsed();
        }
        self.samples.push(measured);
    }

    /// Like `iter_batched`, borrowing the setup value mutably.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        let mut measured = Duration::ZERO;
        for _ in 0..self.iters_per_sample {
            let mut input = setup();
            let start = Instant::now();
            black_box(routine(&mut input));
            measured += start.elapsed();
        }
        self.samples.push(measured);
    }
}

fn run_benchmark(
    cfg: &Criterion,
    group: &str,
    id: &str,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    // Calibration: find an iteration count whose single invocation costs
    // roughly measurement_time / sample_size, warming caches on the way.
    let mut bencher = Bencher { iters_per_sample: 1, samples: Vec::new() };
    let warm_deadline = Instant::now() + cfg.warm_up_time;
    loop {
        bencher.samples.clear();
        let t0 = Instant::now();
        f(&mut bencher);
        let elapsed = bencher.samples.last().copied().unwrap_or_else(|| t0.elapsed());
        let per_iter = elapsed / bencher.iters_per_sample.max(1) as u32;
        let target = cfg.measurement_time / cfg.sample_size as u32;
        if elapsed >= target || Instant::now() >= warm_deadline {
            let per_iter_ns = per_iter.as_nanos().max(1) as u64;
            bencher.iters_per_sample =
                (target.as_nanos() as u64 / per_iter_ns).clamp(1, 1_000_000_000);
            break;
        }
        bencher.iters_per_sample = bencher.iters_per_sample.saturating_mul(2);
    }
    // Measurement.
    bencher.samples.clear();
    for _ in 0..cfg.sample_size {
        f(&mut bencher);
    }
    let per_iter_ns: Vec<f64> = bencher
        .samples
        .iter()
        .map(|d| d.as_secs_f64() * 1e9 / bencher.iters_per_sample as f64)
        .collect();
    let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len().max(1) as f64;
    let mut sorted = per_iter_ns.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted.get(sorted.len() / 2).copied().unwrap_or(mean);

    let full = if group.is_empty() { id.to_string() } else { format!("{group}/{id}") };
    let elements = match throughput {
        Some(Throughput::Elements(e)) => Some(e),
        _ => None,
    };
    match elements {
        Some(e) => {
            let rate = e as f64 / (median / 1e9);
            println!(
                "bench {full:<44} median {:>12}  mean {:>12}  thrpt {:>10.3} Melem/s",
                fmt_ns(median),
                fmt_ns(mean),
                rate / 1e6
            );
        }
        None => {
            println!("bench {full:<44} median {:>12}  mean {:>12}", fmt_ns(median), fmt_ns(mean));
        }
    }
    push_record(BenchRecord {
        group: group.to_string(),
        id: id.to_string(),
        mean_ns: mean,
        median_ns: median,
        throughput_elements: elements,
    });
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a benchmark group: a function list plus optional config.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(name = $name; config = $crate::Criterion::default(); targets = $($target),+);
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // cargo bench passes flags like `--bench`; a filter argument may
            // follow. Run everything when no filter is given.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(1000));
        g.bench_with_input(BenchmarkId::new("f", 8), &8u64, |b, &n| {
            b.iter(|| (0..n).map(black_box).sum::<u64>())
        });
        g.finish();
        let recs = records();
        let r = recs.iter().find(|r| r.group == "g" && r.id == "f/8").expect("recorded");
        assert!(r.mean_ns > 0.0 && r.median_ns > 0.0);
        assert_eq!(r.throughput_elements, Some(1000));
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(2));
        c.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u8; 64],
                |v| v.iter().map(|&x| x as u64).sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        assert!(records().iter().any(|r| r.id == "batched"));
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::new("f", 32).to_string(), "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
