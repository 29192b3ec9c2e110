//! Host-speed calibration: every time the benchmark reports is a
//! measured duration converted to what it would have been on the
//! development host in its fast phase.
//!
//! The benchmark runs on a VM whose vCPUs share physical cores with other
//! tenants. Each vCPU's floating-point throughput switches between two
//! levels about 1.8× apart, on its own, in phases of milliseconds to
//! minutes, while integer throughput barely moves; and now and then the
//! host takes a vCPU away for a few milliseconds. A sampler thread runs a
//! small fixed floating-point kernel (this file's own code, so no program
//! change can move it) on each measured CPU every [`PERIOD`]; its speed is
//! [`REF_KERNEL_S`] over the kernel's time, taken to move linearly from
//! one sample to the next. A workload whose time is a share `f` floating
//! point reports an interval of length `t` as `t × s / (f + (1 − f) s)`,
//! averaged over the interval's speeds `s`: the time at speed 1 of work
//! that took `t` at speed `s`. A faster program shortens `t`; a slower
//! host phase lengthens `t` and lowers `s` alike, and cancels out.
//!
//! Linux only, like the `/proc` reads in `report`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time, seconds, on the development host in its fast
/// phase: the unit the reported times are in.
pub const REF_KERNEL_S: f64 = 10.0e-6;
/// How often each measured CPU is sampled. A sample takes 20–40 µs, so
/// the sampler takes 1–2% of each CPU it measures.
const PERIOD: Duration = Duration::from_millis(2);
/// Order of the kernel's dense system.
const N: usize = 20;
/// LU factorisations per kernel run.
const REPS: usize = 6;

/// glibc's `sched_setaffinity(2)`, `sched_getaffinity(2)` and
/// `clock_gettime(2)`, declared directly, as the repository takes no
/// `libc` dependency.
mod sys {
    /// A `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    /// A `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// CPU seconds of `clock` (a `CLOCK_*_CPUTIME_ID`).
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable timespec; a CPU-time clock of the
    // calling process or thread always exists.
    let rc = unsafe { sys::clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The sampler's own CPU time so far, nanoseconds: it runs inside the
/// measured process, so [`Mark`] takes it out of the process's CPU time.
static SAMPLER_CPU_NS: AtomicU64 = AtomicU64::new(0);

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: sys::CpuSet = [0; 16];
    // SAFETY: `set` is a writable cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sys::sched_getaffinity(0, std::mem::size_of::<sys::CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

fn pin(cpu: usize) -> bool {
    let mut set: sys::CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a cpu_set_t of the size passed; pid 0 is the
    // calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuSet>(), &set) == 0 }
}

/// Pins the calling thread, and every thread or process it starts from
/// now on, to the lowest-numbered CPU it may use; returns that CPU.
/// Single-caller workloads do this so the sampler measures the CPU that
/// does the work. Always the same CPU, since the CPUs differ: on the
/// development host every disk interrupt lands on the second one, and
/// `serve` waits on the disk.
pub fn pin_first() -> Result<usize, String> {
    let cpu = *allowed_cpus().first().ok_or("sched_getaffinity failed")?;
    if pin(cpu) {
        Ok(cpu)
    } else {
        Err(format!("cannot pin to CPU {cpu}"))
    }
}

/// One run of the kernel: `REPS` LU factorisations (no pivoting, the
/// matrix is diagonally dominant) of a fixed `N × N` system, plus an
/// exponential per row, as device evaluation does. Returns seconds.
/// Indexed loops, like the solver's own dense LU.
#[allow(clippy::needless_range_loop)]
fn kernel() -> f64 {
    let t = Instant::now();
    let mut acc = 0.0;
    for rep in 0..REPS {
        let mut a = [[0.0f64; N]; N];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = ((i * 31 + j * 17 + rep) % 23) as f64 / 23.0 - 0.5;
            }
            row[i] += N as f64;
        }
        let a = black_box(&mut a);
        for k in 0..N {
            let pivot = a[k][k];
            for i in k + 1..N {
                let f = a[i][k] / pivot;
                a[i][k] = f;
                for j in k + 1..N {
                    a[i][j] -= f * a[k][j];
                }
            }
        }
        for row in a.iter() {
            acc += (row[N - 1] * 0.01).exp();
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// A point in time on both clocks an interval can be measured by.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    /// CPU seconds of the process so far, less the sampler's.
    busy_s: f64,
}

impl Mark {
    pub fn now() -> Mark {
        let sampler_s = SAMPLER_CPU_NS.load(Ordering::Relaxed) as f64 * 1e-9;
        Mark {
            busy_s: cpu_clock_s(sys::CLOCK_PROCESS_CPUTIME_ID) - sampler_s,
            at: Instant::now(),
        }
    }
}

/// A measured stretch of time, turned into reference seconds by
/// [`Sampler::seconds`] once the sampler has sampled past its end.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub from: Instant,
    pub to: Instant,
    /// CPU seconds the process (less the sampler) spent in it.
    busy_s: f64,
}

impl Interval {
    /// From `from` until now.
    pub fn since(from: Mark) -> Interval {
        let to = Mark::now();
        Interval {
            from: from.at,
            to: to.at,
            busy_s: to.busy_s - from.busy_s,
        }
    }

    /// Its length as the wall clock measured it, seconds.
    pub fn wall_s(&self) -> f64 {
        (self.to - self.from).as_secs_f64()
    }

    /// CPU seconds the process, less the sampler, spent in it.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }
}

/// Which length of an interval a workload's times start from.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// The wall clock: for work spread over threads or processes, or that
    /// waits on I/O.
    Wall,
    /// The process's CPU time less the sampler's: for single-threaded
    /// work that never blocks, on one pinned CPU. It leaves out the
    /// milliseconds the host now and then takes that CPU away.
    Cpu,
}

/// How a workload's intervals are converted: which clock its timed work
/// and its set-ups are measured on, and the share of each one's time that
/// runs at the kernel's (floating-point) speed, found by measuring the
/// workload in both phases of the host.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    pub clock: Clock,
    pub fp_share: f64,
    pub setup_clock: Clock,
    pub setup_fp_share: f64,
}

/// One speed sample of one CPU: when the kernel ran (its midpoint) and
/// `REF_KERNEL_S` over its time (the faster of two runs, so an interrupt
/// landing in one does not read as a slow phase).
fn sample() -> (Instant, f64) {
    let start = Instant::now();
    let secs = kernel().min(kernel());
    (start + start.elapsed() / 2, REF_KERNEL_S / secs)
}

/// Each measured CPU's samples, in time order.
type Series = Vec<Vec<(Instant, f64)>>;

/// The sampler thread and what it has measured. Stops and joins its
/// thread when dropped.
pub struct Sampler {
    model: Model,
    series: Arc<Mutex<Series>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling each of `cpus` every [`PERIOD`], and takes one
    /// sample of each before returning.
    pub fn start(cpus: Vec<usize>, model: Model) -> Result<Sampler, String> {
        if cpus.is_empty() {
            return Err("no CPU to calibrate".to_string());
        }
        let series = Arc::new(Mutex::new(vec![Vec::new(); cpus.len()]));
        let stop = Arc::new(AtomicBool::new(false));
        let (first_tx, first_rx) = std::sync::mpsc::channel();
        let thread = {
            let (series, stop) = (Arc::clone(&series), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("calib".to_string())
                .spawn(move || {
                    let mut first = Some(first_tx);
                    while !stop.load(Ordering::Relaxed) {
                        let next = Instant::now() + PERIOD;
                        for (k, &cpu) in cpus.iter().enumerate() {
                            if pin(cpu) {
                                let s = sample();
                                series.lock().unwrap_or_else(|e| e.into_inner())[k].push(s);
                            }
                        }
                        let own = cpu_clock_s(sys::CLOCK_THREAD_CPUTIME_ID);
                        SAMPLER_CPU_NS.store((own * 1e9) as u64, Ordering::Relaxed);
                        if let Some(tx) = first.take() {
                            let _ = tx.send(());
                        }
                        std::thread::sleep(next.saturating_duration_since(Instant::now()));
                    }
                })
                .map_err(|e| format!("spawn calibration thread: {e}"))?
        };
        let sampler = Sampler {
            model,
            series,
            stop,
            thread: Some(thread),
        };
        first_rx
            .recv()
            .map_err(|_| "calibration thread ended early".to_string())?;
        Ok(sampler)
    }

    /// Mean speed over `[from, to]`, averaged over the measured CPUs.
    /// Meant for after [`Sampler::finish`], when every interval is
    /// bracketed by samples.
    pub fn speed(&self, from: Instant, to: Instant) -> f64 {
        self.mean(from, to, |s| s)
    }

    /// `span` of timed work in reference-host seconds.
    pub fn seconds(&self, span: Interval) -> f64 {
        self.seconds_on(span, self.model.clock, self.model.fp_share)
    }

    /// A set-up's `span` in reference-host seconds.
    pub fn setup_seconds(&self, span: Interval) -> f64 {
        self.seconds_on(span, self.model.setup_clock, self.model.setup_fp_share)
    }

    fn seconds_on(&self, span: Interval, clock: Clock, f: f64) -> f64 {
        let len = match clock {
            Clock::Wall => span.wall_s(),
            Clock::Cpu => span.busy_s,
        };
        len * self.mean(span.from, span.to, |s| s / (f + (1.0 - f) * s))
    }

    /// Mean of `g(speed)` over `[from, to]` and the measured CPUs.
    fn mean(&self, from: Instant, to: Instant, g: impl Fn(f64) -> f64) -> f64 {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let means: Vec<f64> = series
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| mean_over(s, from, to, &g))
            .collect();
        means.iter().sum::<f64>() / means.len().max(1) as f64
    }

    /// Waits until every CPU has a sample taken after this call, so every
    /// interval that has ended is bracketed, then stops the thread.
    pub fn finish(&mut self) {
        let now = Instant::now();
        let deadline = now + 20 * PERIOD;
        while Instant::now() < deadline {
            let bracketed = self
                .series
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .all(|s| s.last().is_some_and(|&(at, _)| at > now));
            if bracketed {
                break;
            }
            std::thread::sleep(PERIOD / 4);
        }
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("the calibration thread does not panic");
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One CPU's speed at `t`: linear between its samples, held before the
/// first and after the last.
fn speed_at(series: &[(Instant, f64)], t: Instant) -> f64 {
    let i = series.partition_point(|&(at, _)| at < t);
    match (i.checked_sub(1).map(|j| series[j]), series.get(i)) {
        (Some((t0, s0)), Some(&(t1, s1))) => {
            let w = (t - t0).as_secs_f64() / (t1 - t0).as_secs_f64().max(f64::MIN_POSITIVE);
            s0 + (s1 - s0) * w
        }
        (Some((_, s)), None) | (None, Some(&(_, s))) => s,
        (None, None) => 1.0,
    }
}

/// Mean of `g` of one CPU's speed over `[from, to]` (trapezoids through
/// the samples inside), or `g` of its speed at `from` for an empty span.
fn mean_over(series: &[(Instant, f64)], from: Instant, to: Instant, g: impl Fn(f64) -> f64) -> f64 {
    let span = (to - from).as_secs_f64();
    if span <= 0.0 {
        return g(speed_at(series, from));
    }
    let lo = series.partition_point(|&(at, _)| at <= from);
    let hi = series.partition_point(|&(at, _)| at < to);
    let points = std::iter::once((from, speed_at(series, from)))
        .chain(series[lo..hi].iter().copied())
        .chain(std::iter::once((to, speed_at(series, to))));
    let mut integral = 0.0;
    let mut prev: Option<(Instant, f64)> = None;
    for (t, s) in points {
        let y = g(s);
        if let Some((t0, y0)) = prev {
            integral += 0.5 * (y0 + y) * (t - t0).as_secs_f64();
        }
        prev = Some((t, y));
    }
    integral / span
}
