//! Offline shim for the `criterion` benchmark harness.
//!
//! Implements the API subset the `scorpion-bench` benches use —
//! benchmark groups, `bench_with_input`, `BenchmarkId`, `Throughput`,
//! sample/measurement knobs, and the `criterion_group!` /
//! `criterion_main!` macros — backed by a plain wall-clock timing loop.
//! No statistical analysis, plots, or baselines: each benchmark prints
//! `group/function/param  time: [min mean max]` from its collected
//! samples. Good enough to compare variants (e.g. warm vs cold caches)
//! in an environment without crates.io access.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness handle passed to each bench function.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_millis(300),
            throughput: None,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group("");
        g.bench_function(id.to_string(), f);
        g.finish();
        self
    }
}

/// Identifies one benchmark within a group: a function name plus a
/// parameter rendering.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id `function/parameter`.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId { label: format!("{function}/{parameter}") }
    }

    /// Creates an id from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Throughput annotation (recorded; reported as elements or bytes per
/// second alongside the timing line).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batch-size hint for [`Bencher::iter_batched`] (accepted for source
/// compatibility; the shim times one batch per sample regardless).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// A group of related benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Caps the total measurement time per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up time per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks `f` with an input value.
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
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            samples: Vec::new(),
        };
        f(&mut b, input);
        self.report(&id.to_string(), &b.samples);
        self
    }

    /// Benchmarks `f` without an input value.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            samples: Vec::new(),
        };
        f(&mut b);
        self.report(&id.to_string(), &b.samples);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}

    fn report(&self, id: &str, samples: &[Duration]) {
        let full =
            if self.name.is_empty() { id.to_string() } else { format!("{}/{}", self.name, id) };
        if samples.is_empty() {
            println!("{full:<48} time: [no samples]");
            return;
        }
        let min = samples.iter().min().unwrap();
        let max = samples.iter().max().unwrap();
        let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
        let tp = match self.throughput {
            Some(Throughput::Elements(n)) if mean.as_secs_f64() > 0.0 => {
                format!("  thrpt: {:.0} elem/s", n as f64 / mean.as_secs_f64())
            }
            Some(Throughput::Bytes(n)) if mean.as_secs_f64() > 0.0 => {
                format!("  thrpt: {:.0} B/s", n as f64 / mean.as_secs_f64())
            }
            _ => String::new(),
        };
        println!(
            "{full:<48} time: [{} {} {}]{tp}",
            fmt_duration(*min),
            fmt_duration(mean),
            fmt_duration(*max),
        );
        write_json_record(&full, samples, *min, mean, *max, self.throughput);
    }
}

/// When `BENCH_JSON` names a file, appends one JSON object per
/// benchmark (JSON Lines) so CI can archive machine-readable results
/// alongside the human log. Failures to write are reported but never
/// fail the bench run.
fn write_json_record(
    id: &str,
    samples: &[Duration],
    min: Duration,
    mean: Duration,
    max: Duration,
    throughput: Option<Throughput>,
) {
    let Ok(path) = std::env::var("BENCH_JSON") else { return };
    if path.is_empty() {
        return;
    }
    let escaped: String = id
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    let elems_per_sec = match throughput {
        Some(Throughput::Elements(n)) if mean.as_secs_f64() > 0.0 => {
            format!(",\"elements_per_sec\":{:.1}", n as f64 / mean.as_secs_f64())
        }
        _ => String::new(),
    };
    let record = format!(
        "{{\"id\":\"{escaped}\",\"samples\":{},\"min_ns\":{},\"mean_ns\":{},\"max_ns\":{}{elems_per_sec}}}\n",
        samples.len(),
        min.as_nanos(),
        mean.as_nanos(),
        max.as_nanos(),
    );
    use std::io::Write as _;
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(record.as_bytes()));
    if let Err(e) = result {
        eprintln!("BENCH_JSON: failed to append to {path}: {e}");
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Runs and times a benchmark routine.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`: warm-up, then up to `sample_size` timed calls
    /// bounded by the measurement budget.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let warm_until = Instant::now() + self.warm_up_time;
        loop {
            black_box(routine());
            if Instant::now() >= warm_until {
                break;
            }
        }
        self.samples.clear();
        let deadline = Instant::now() + self.measurement_time;
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Times `routine` with per-call inputs built by `setup` **outside**
    /// the timed region — for consuming routines whose input
    /// construction (clones, allocations) must not pollute the
    /// measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_until = Instant::now() + self.warm_up_time;
        loop {
            let input = setup();
            black_box(routine(input));
            if Instant::now() >= warm_until {
                break;
            }
        }
        self.samples.clear();
        let deadline = Instant::now() + self.measurement_time;
        for _ in 0..self.sample_size {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples.push(t0.elapsed());
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// Declares a function that runs a list of bench functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // `BENCH_JSON` is process-global: while one test sets it, any other
    // test that benches appends to the same file. Tests that bench
    // serialize on one lock, so the JSON test's file holds only its own
    // records.
    static BENCH_LOCK: Mutex<()> = Mutex::new(());

    fn bench_lock() -> MutexGuard<'static, ()> {
        BENCH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bencher_collects_samples() {
        let _g = bench_lock();
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3)
            .measurement_time(Duration::from_millis(50))
            .warm_up_time(Duration::from_millis(1));
        let mut ran = 0u64;
        g.bench_with_input(BenchmarkId::new("noop", 1), &1u64, |b, &x| {
            b.iter(|| {
                ran += x;
                black_box(ran)
            });
        });
        g.finish();
        assert!(ran > 0);
    }

    #[test]
    fn bench_json_appends_records() {
        let _g = bench_lock();
        let path = std::env::temp_dir().join("criterion_shim_bench.jsonl");
        let _ = std::fs::remove_file(&path);
        std::env::set_var("BENCH_JSON", &path);
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("json");
        g.sample_size(2)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(1))
            .throughput(Throughput::Elements(10));
        g.bench_function("emit \"x\"", |b| b.iter(|| black_box(1 + 1)));
        g.finish();
        std::env::remove_var("BENCH_JSON");
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().next().unwrap();
        assert!(line.starts_with("{\"id\":\"json/emit \\\"x\\\"\""), "{line}");
        assert!(line.contains("\"mean_ns\":"), "{line}");
        assert!(line.contains("\"elements_per_sec\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }
}
