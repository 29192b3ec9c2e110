//! Minimal benchmark harness used by the `benches/` targets.
//!
//! The container this reproduction builds in has no network access, so the
//! benches cannot depend on Criterion; this module provides the small
//! subset the bench files need — named groups, per-benchmark wall-clock
//! sampling, and a one-line median/min report — with no dependencies.
//!
//! Timing model: one untimed warm-up call, then whole-iteration samples
//! until both `sample_size` iterations and `measurement_time` have been
//! spent (whichever bound is *later* wins, so fast kernels get many
//! samples and slow kernels still finish). The median is the headline
//! number; min is reported as the noise floor. [`Group::bench_pair`]
//! samples two benchmarks in alternation, so that a ratio of their
//! medians does not carry the host's speed phases.

use spicier::json::Json;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed benchmark measurement, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Group name (`lu`, `circuit`, ...).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Median sample.
    pub median_ns: u128,
    /// Fastest sample (noise floor).
    pub min_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
}

/// Every record printed so far; drained by [`take_records`].
static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Drains the records collected since the last call (or process start).
pub fn take_records() -> Vec<BenchRecord> {
    std::mem::take(&mut *RECORDS.lock().expect("records lock"))
}

/// Whether quick mode is on (`BENCH_QUICK=1`): sampling is trimmed so a
/// CI smoke job finishes in seconds while exercising every bench path.
pub fn quick_mode() -> bool {
    std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Collects samples for one benchmark.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    measurement_time: Duration,
}

impl Bencher {
    /// Runs `f` repeatedly, timing each call.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        black_box(f()); // warm-up, untimed
        let started = Instant::now();
        loop {
            self.time(&mut f);
            if self.enough(started) {
                break;
            }
        }
    }

    /// Times one call of `f` as one sample.
    fn time<R>(&mut self, f: &mut impl FnMut() -> R) {
        let t0 = Instant::now();
        black_box(f());
        self.samples.push(t0.elapsed());
    }

    /// Whether sampling that began at `started` may stop: both the sample
    /// count and the measurement time are reached, or the hard cap is.
    fn enough(&self, started: Instant) -> bool {
        let elapsed = started.elapsed();
        (self.samples.len() >= self.sample_size && elapsed >= self.measurement_time)
            // Hard cap so a grossly mis-sized bench cannot hang a run —
            // but never with fewer than 3 samples, the floor below which
            // a median is just the min and the report is meaningless.
            || (self.samples.len() >= 3 && elapsed >= self.measurement_time * 10)
    }
}

/// A named group of benchmarks with shared sampling settings.
pub struct Group {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    quick: bool,
}

impl Group {
    /// Minimum number of timed iterations per benchmark (capped in quick
    /// mode, never below 3 — a median needs at least that to be more
    /// than the min sample).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = if self.quick { n.clamp(3, 5) } else { n.max(3) };
        self
    }

    /// Minimum wall-clock time spent sampling each benchmark (capped in
    /// quick mode).
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = if self.quick {
            d.min(Duration::from_millis(100))
        } else {
            d
        };
        self
    }

    /// Runs one benchmark and prints its report line.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, id: impl AsRef<str>, f: F) {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
        };
        f(&mut b);
        report(&self.name, id.as_ref(), &mut b.samples);
    }

    /// Runs two benchmarks in alternation, one call of each per round and
    /// the order flipped every round, so a change of host speed during the
    /// run lands on both alike; prints both report lines and returns the
    /// median over rounds of `b`'s time over `a`'s. Each round's two calls
    /// run back to back, so that ratio holds even when the host's speed
    /// phases make each side's own samples bimodal. Also returns the
    /// ratios' lower and upper quartiles, as `[q1, median, q3]`. The round
    /// count follows this group's sampling settings.
    pub fn bench_pair<RA, RB>(
        &mut self,
        id_a: impl AsRef<str>,
        mut a: impl FnMut() -> RA,
        id_b: impl AsRef<str>,
        mut b: impl FnMut() -> RB,
    ) -> [f64; 3] {
        let bencher = || Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
        };
        let (mut on_a, mut on_b) = (bencher(), bencher());
        black_box(a()); // warm-up, untimed
        black_box(b());
        let started = Instant::now();
        for round in 0.. {
            if round % 2 == 0 {
                on_a.time(&mut a);
                on_b.time(&mut b);
            } else {
                on_b.time(&mut b);
                on_a.time(&mut a);
            }
            if on_a.enough(started) {
                break;
            }
        }
        let mut ratios: Vec<f64> = on_a
            .samples
            .iter()
            .zip(&on_b.samples)
            .map(|(a, b)| b.as_secs_f64() / a.as_secs_f64().max(f64::MIN_POSITIVE))
            .collect();
        ratios.sort_unstable_by(f64::total_cmp);
        report(&self.name, id_a.as_ref(), &mut on_a.samples);
        report(&self.name, id_b.as_ref(), &mut on_b.samples);
        let len = ratios.len();
        [ratios[len / 4], ratios[len / 2], ratios[3 * len / 4]]
    }
}

/// Entry point handed to each bench function (Criterion's `&mut Criterion`).
#[derive(Default)]
pub struct Harness {}

impl Harness {
    /// Creates a harness; reads no configuration.
    pub fn new() -> Self {
        Self {}
    }

    /// Opens a named group with default sampling (20 samples / 2 s, or a
    /// trimmed 5 samples / 100 ms in quick mode).
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group {
        let quick = quick_mode();
        Group {
            name: name.into(),
            sample_size: if quick { 5 } else { 20 },
            measurement_time: if quick {
                Duration::from_millis(100)
            } else {
                Duration::from_secs(2)
            },
            quick,
        }
    }
}

fn report(group: &str, id: &str, samples: &mut [Duration]) {
    samples.sort_unstable();
    let median_ns = median_ns_of(samples);
    let min = samples[0];
    println!(
        "{group}/{id:<40} median {:>12}  min {:>12}  ({} samples)",
        fmt_ns(median_ns),
        fmt_ns(min.as_nanos()),
        samples.len()
    );
    RECORDS.lock().expect("records lock").push(BenchRecord {
        group: group.to_string(),
        id: id.to_string(),
        median_ns,
        min_ns: min.as_nanos(),
        samples: samples.len(),
    });
}

/// Median of sorted samples, in nanoseconds: the middle element for odd
/// lengths, the midpoint of the two middle elements for even lengths.
/// (The old `samples[len / 2]` picked the *upper* of the two middle
/// samples, biasing every even-length report high — by half the
/// inter-sample gap, which on noisy short runs is not small.)
fn median_ns_of(sorted: &[Duration]) -> u128 {
    let len = sorted.len();
    assert!(len > 0, "median of an empty sample set");
    if len % 2 == 1 {
        sorted[len / 2].as_nanos()
    } else {
        (sorted[len / 2 - 1].as_nanos() + sorted[len / 2].as_nanos()) / 2
    }
}

/// Writes a machine-readable report: every bench record plus
/// caller-computed scalar metrics (speedups, nnz counts, ...), as JSON.
/// A non-finite metric is written as `null`.
///
/// # Errors
///
/// Propagates filesystem errors (the parent directory is created).
pub fn write_json_report(
    path: &Path,
    records: &[BenchRecord],
    metrics: &[(&str, f64)],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let benches = records
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("group", Json::str(r.group.as_str())),
                ("id", Json::str(r.id.as_str())),
                ("median_ns", Json::Num(r.median_ns as f64)),
                ("min_ns", Json::Num(r.min_ns as f64)),
                ("samples", Json::Num(r.samples as f64)),
            ])
        })
        .collect();
    let metrics = metrics
        .iter()
        .map(|(k, v)| ((*k).to_string(), Json::num(*v)))
        .collect();
    let mut out = Json::obj(vec![
        ("benches", Json::Arr(benches)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render();
    out.push('\n');
    // Atomic write: tmp sibling + rename + parent-dir fsync, so a
    // killed bench run never leaves a truncated report for CI to parse.
    crate::durable::write_atomic("bench.write", path, out.as_bytes())
}

fn fmt_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1.0e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1.0e6)
    } else {
        format!("{:.3} s", ns as f64 / 1.0e9)
    }
}

/// A named bench entry point, as registered with [`run_benches`].
pub type BenchFn = fn(&mut Harness);

/// Runs the given bench functions, mirroring `criterion_main!`.
pub fn run_benches(benches: &[(&str, BenchFn)]) {
    // `cargo bench` passes `--bench`; filter arguments select groups.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let mut harness = Harness::new();
    for (name, f) in benches {
        if filters.is_empty() || filters.iter().any(|pat| name.contains(pat.as_str())) {
            f(&mut harness);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_at_least_sample_size() {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: 5,
            measurement_time: Duration::from_millis(1),
        };
        b.iter(|| 1 + 1);
        assert!(b.samples.len() >= 5);
    }

    #[test]
    fn group_runs_and_reports() {
        let mut h = Harness::new();
        let mut g = h.benchmark_group("t");
        g.sample_size(2).measurement_time(Duration::from_millis(1));
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn paired_benches_take_equal_alternating_samples() {
        let mut h = Harness::new();
        let mut g = h.benchmark_group("paired");
        g.sample_size(7).measurement_time(Duration::from_millis(1));
        let calls = std::cell::RefCell::new(Vec::new());
        let ratio = g.bench_pair(
            "a",
            || calls.borrow_mut().push('a'),
            "b",
            || calls.borrow_mut().push('b'),
        );
        let calls = calls.into_inner();
        assert_eq!(&calls[..6], ['a', 'b', 'a', 'b', 'b', 'a']);
        assert!(ratio.iter().all(|r| r.is_finite() && *r > 0.0), "{ratio:?}");
        assert!(ratio[0] <= ratio[1] && ratio[1] <= ratio[2], "{ratio:?}");
        let records: Vec<_> = take_records()
            .into_iter()
            .filter(|r| r.group == "paired")
            .collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].samples, records[1].samples);
        assert!(records[0].samples >= 7);
    }

    #[test]
    fn median_is_true_midpoint_for_even_lengths() {
        let ns = |v: u64| Duration::from_nanos(v);
        // Odd: middle element.
        assert_eq!(median_ns_of(&[ns(1), ns(5), ns(100)]), 5);
        // Even: midpoint of the two middle samples, not the upper one.
        assert_eq!(median_ns_of(&[ns(10), ns(20), ns(30), ns(100)]), 25);
        assert_eq!(median_ns_of(&[ns(10), ns(20)]), 15);
        assert_eq!(median_ns_of(&[ns(7)]), 7);
    }

    #[test]
    fn quick_mode_sample_size_floor_is_three() {
        let mut g = Group {
            name: "t".to_string(),
            sample_size: 5,
            measurement_time: Duration::from_millis(1),
            quick: true,
        };
        // A quick-mode request for 1 sample must still take 3: the old
        // clamp(1, 5) let quick runs report a "median" of one sample.
        g.sample_size(1);
        assert_eq!(g.sample_size, 3);
        g.sample_size(20);
        assert_eq!(g.sample_size, 5);
        let mut full = Group { quick: false, ..g };
        full.sample_size(1);
        assert_eq!(full.sample_size, 3);
    }

    #[test]
    fn hard_cap_never_stops_below_three_samples() {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: 50,
            measurement_time: Duration::ZERO,
        };
        // measurement_time * 10 == 0, so the hard cap fires on every
        // check; the floor must still force 3 samples before it can
        // stop the run (the old cap could exit after a single one).
        b.iter(|| std::thread::sleep(Duration::from_micros(10)));
        assert!(b.samples.len() >= 3, "{}", b.samples.len());
    }

    #[test]
    fn armed_bench_write_leaves_no_report() {
        let path = std::env::temp_dir()
            .join(format!("bench-write-{}", std::process::id()))
            .join("BENCH_test.json");
        let result = spicier::chaos::with_failpoints("bench.write=err", || {
            write_json_report(&path, &[], &[])
        });
        assert!(result.is_err());
        assert!(!path.exists());
        write_json_report(&path, &[], &[("x", 1.0)]).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("\"x\""));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(1_500_000), "1.50 ms");
        assert!(fmt_ns(2_000_000_000).ends_with(" s"));
    }
}
