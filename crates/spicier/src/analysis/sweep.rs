//! Parameter sweeps with thread-level parallelism and fault isolation.
//!
//! The paper's figures are all parameter sweeps (pipe resistance ×
//! frequency × load capacitance). Individual transient runs are
//! single-threaded; [`par_try_map`] fans independent runs out over OS
//! threads with `std::thread::scope`, so no external dependency is needed.
//!
//! Each corner runs once behind `catch_unwind`, under an optional
//! per-corner deadline: solver errors, timeouts and panics are captured
//! per corner instead of killing the whole sweep, and a [`SweepReport`]
//! records exactly which corners failed and why — one diverging corner
//! costs one missing data point, not the run.

use super::budget::{with_corner_token, CancelToken};
use crate::error::Error;
use crate::telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, ignoring poisoning: a worker that panicked mid-corner
/// must not take the bookkeeping (and thus every other corner) down with
/// it. The guarded data stays consistent because each slot is written at
/// most once, after the fallible work has already finished.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why one sweep corner produced no result.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepFailure {
    /// The solver returned a structured error (no convergence, singular
    /// matrix, timestep underflow, ...).
    Solver(Error),
    /// The corner's closure panicked; the payload message is preserved.
    Panicked(String),
    /// The corner exceeded its per-corner deadline
    /// ([`TryMapOptions::corner_deadline`]) and was cancelled mid-solve.
    TimedOut {
        /// Wall-clock time the corner ran before cancellation.
        elapsed: Duration,
        /// The [`Error::DeadlineExceeded`] that surfaced from the solve,
        /// carrying the interrupted phase and its partial progress.
        error: Error,
    },
    /// Residual certification failed at this corner: a solve completed but
    /// its backward error stayed above tolerance after refinement, so the
    /// numbers cannot be trusted. Quarantined: re-running the same
    /// factorization reproduces the same untrusted solution.
    Untrusted {
        /// The [`Error::UntrustedSolution`] carrying the backward error,
        /// tolerance, and condition estimate.
        error: Error,
    },
}

impl SweepFailure {
    /// Short machine-readable tag for telemetry events.
    fn kind(&self) -> &'static str {
        match self {
            SweepFailure::Solver(_) => "solver",
            SweepFailure::Panicked(_) => "panicked",
            SweepFailure::TimedOut { .. } => "timed-out",
            SweepFailure::Untrusted { .. } => "untrusted",
        }
    }
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepFailure::Solver(e) => write!(f, "solver error: {e}"),
            SweepFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            SweepFailure::TimedOut { elapsed, error } => {
                write!(f, "timed out after {:.3} s: {error}", elapsed.as_secs_f64())
            }
            SweepFailure::Untrusted { error } => write!(f, "quarantined: {error}"),
        }
    }
}

/// One failed corner of a [`par_try_map`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerFailure {
    /// Index of the corner in the input item list.
    pub index: usize,
    /// Why the corner failed.
    pub failure: SweepFailure,
}

/// Account of a fault-isolated sweep: how many corners ran, which failed
/// and why, and how long the whole sweep took.
#[derive(Debug, Clone)]
#[must_use]
pub struct SweepReport {
    /// Total number of corners in the sweep.
    pub total: usize,
    /// Corners that produced a result.
    pub succeeded: usize,
    /// Every failed corner, in input order.
    pub failures: Vec<CornerFailure>,
    /// Wall-clock time of the whole sweep.
    pub elapsed: Duration,
}

impl SweepReport {
    /// Whether every corner succeeded.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of corners quarantined for failed residual certification
    /// ([`SweepFailure::Untrusted`]).
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.failures
            .iter()
            .filter(|f| matches!(f.failure, SweepFailure::Untrusted { .. }))
            .count()
    }

    /// `Ok` when every corner succeeded; otherwise the first failure in
    /// input order as an error, for callers that need every corner. A
    /// corner that panicked panics again here, as it would have inline.
    ///
    /// # Errors
    ///
    /// The first failed corner's error.
    pub fn into_result(self) -> Result<(), Error> {
        let Some(fail) = self.failures.into_iter().next() else {
            return Ok(());
        };
        match fail.failure {
            SweepFailure::Solver(error)
            | SweepFailure::TimedOut { error, .. }
            | SweepFailure::Untrusted { error } => Err(error),
            SweepFailure::Panicked(message) => std::panic::resume_unwind(Box::new(message)),
        }
    }

    /// One-line summary, e.g.
    /// `"38/40 corners ok in 2.1 s (1 solver failure, 1 panicked)"`.
    #[must_use]
    pub fn summary(&self) -> String {
        let secs = self.elapsed.as_secs_f64();
        if self.all_ok() {
            return format!(
                "{}/{} corners ok in {:.1} s",
                self.succeeded, self.total, secs
            );
        }
        let mut solver = 0usize;
        let mut panicked = 0usize;
        let mut timed_out = 0usize;
        let mut quarantined = 0usize;
        for fail in &self.failures {
            match fail.failure {
                SweepFailure::Solver(_) => solver += 1,
                SweepFailure::Panicked(_) => panicked += 1,
                SweepFailure::TimedOut { .. } => timed_out += 1,
                SweepFailure::Untrusted { .. } => quarantined += 1,
            }
        }
        let mut parts = Vec::new();
        if solver > 0 {
            parts.push(format!(
                "{solver} solver failure{}",
                if solver == 1 { "" } else { "s" }
            ));
        }
        if panicked > 0 {
            parts.push(format!("{panicked} panicked"));
        }
        if timed_out > 0 {
            parts.push(format!("{timed_out} timed out"));
        }
        if quarantined > 0 {
            parts.push(format!("{quarantined} quarantined"));
        }
        format!(
            "{}/{} corners ok in {:.1} s ({})",
            self.succeeded,
            self.total,
            secs,
            parts.join(", ")
        )
    }
}

/// Knobs for [`par_try_map`].
#[derive(Debug, Clone, Default)]
pub struct TryMapOptions {
    /// Wall-clock slice for each individual corner. The worker installs an
    /// expiring [`CancelToken`] around the corner's closure with
    /// [`with_corner_token`], so any solve the closure runs on the worker's
    /// thread cooperatively stops once the slice is spent. The corner is
    /// then recorded as [`SweepFailure::TimedOut`] and the worker's
    /// scratch is rebuilt before its next corner.
    pub corner_deadline: Option<Duration>,
    /// Cap on worker threads (`None` → `available_parallelism()`). The
    /// determinism tests pin this to compare single- and multi-worker
    /// runs of the same sweep.
    pub max_workers: Option<usize>,
}

/// Best-effort text of a panic payload (`&str` and `String` payloads
/// cover everything `panic!` produces; anything else is opaque).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps fallible `f` over `items` in parallel with per-corner fault
/// isolation, preserving order.
///
/// Each corner's result lands in the returned vector (`None` for failed
/// corners), and the [`SweepReport`] records every failure — structured
/// solver errors *and* panics (caught with `catch_unwind`) — so one bad
/// corner can never abort the sweep or poison the other workers.
pub fn par_try_map<T, R, F>(
    items: Vec<T>,
    opts: &TryMapOptions,
    f: F,
) -> (Vec<Option<R>>, SweepReport)
where
    T: Send,
    R: Send,
    F: Fn(&T) -> Result<R, Error> + Sync,
{
    par_try_map_with(items, opts, || (), |(), value| f(value))
}

/// [`par_try_map`] with per-worker scratch state, preserving order.
///
/// `init` runs once on each worker thread; the scratch it builds is handed
/// to `f` for every corner that worker dequeues. Sweeps use this to keep
/// one solver workspace per thread, so consecutive corners with the same
/// matrix pattern reuse the cached stamp map and symbolic factorization.
/// A corner that panics or is cut off mid-solve gets its worker's scratch
/// rebuilt with `init` before the next corner, so a half-updated workspace
/// can never leak into later corners.
pub fn par_try_map_with<T, S, R, I, F>(
    items: Vec<T>,
    opts: &TryMapOptions,
    init: I,
    f: F,
) -> (Vec<Option<R>>, SweepReport)
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> Result<R, Error> + Sync,
{
    let started = Instant::now();
    let total = items.len();
    let n_workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(total.max(1))
        .min(opts.max_workers.unwrap_or(usize::MAX))
        .max(1);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    let mut failures: Vec<CornerFailure> = Vec::new();

    {
        let work: Vec<(usize, T)> = items.into_iter().enumerate().collect();
        let queue = Mutex::new(work);
        let results = Mutex::new(&mut slots);
        let failed = Mutex::new(&mut failures);

        let worker = |worker_id: usize| {
            let mut scratch = init();
            let mut handled = 0usize;
            loop {
                let item = lock(&queue).pop();
                let Some((idx, value)) = item else { break };
                let corner_started = Instant::now();
                let token = opts.corner_deadline.map(CancelToken::with_deadline);
                let mut run = || catch_unwind(AssertUnwindSafe(|| f(&mut scratch, &value)));
                let result = match &token {
                    Some(tok) => with_corner_token(tok, run),
                    None => run(),
                };
                handled += 1;
                let failure = match result {
                    Ok(Ok(r)) => {
                        if telemetry::enabled() {
                            telemetry::event(
                                "corner_done",
                                &[
                                    ("index", idx.into()),
                                    ("worker", worker_id.into()),
                                    (
                                        "elapsed_ms",
                                        (corner_started.elapsed().as_secs_f64() * 1e3).into(),
                                    ),
                                ],
                            );
                        }
                        lock(&results)[idx] = Some(r);
                        continue;
                    }
                    Ok(Err(e)) if e.is_deadline_exceeded() => {
                        // The deadline interrupts a solve mid-flight; the
                        // workspace may hold partial state, so rebuild it.
                        scratch = init();
                        SweepFailure::TimedOut {
                            elapsed: corner_started.elapsed(),
                            error: e,
                        }
                    }
                    Ok(Err(e)) if e.is_untrusted_solution() => {
                        // Quarantine the corner, and rebuild the scratch:
                        // the factorization it caches is the one that
                        // failed certification.
                        scratch = init();
                        SweepFailure::Untrusted { error: e }
                    }
                    Ok(Err(e)) => SweepFailure::Solver(e),
                    Err(payload) => {
                        // The panic may have left the scratch half
                        // updated; start the next corner clean.
                        scratch = init();
                        SweepFailure::Panicked(panic_message(payload.as_ref()))
                    }
                };
                if telemetry::enabled() {
                    telemetry::event(
                        "corner_failed",
                        &[
                            ("index", idx.into()),
                            ("worker", worker_id.into()),
                            ("kind", failure.kind().into()),
                            (
                                "elapsed_ms",
                                (corner_started.elapsed().as_secs_f64() * 1e3).into(),
                            ),
                        ],
                    );
                    telemetry::record_failure(
                        "CornerFailure",
                        &format!("corner {idx} failed: {failure}"),
                    );
                }
                lock(&failed).push(CornerFailure {
                    index: idx,
                    failure,
                });
            }
            // Occupancy: how many corners this worker ended up draining —
            // a skewed distribution flags one slow corner starving the
            // sweep.
            if telemetry::enabled() {
                telemetry::event(
                    "worker_done",
                    &[("worker", worker_id.into()), ("corners", handled.into())],
                );
            }
        };

        if n_workers <= 1 || total <= 1 {
            worker(0);
        } else {
            std::thread::scope(|scope| {
                let worker = &worker;
                for worker_id in 0..n_workers {
                    scope.spawn(move || worker(worker_id));
                }
            });
        }
    }

    failures.sort_by_key(|fail| fail.index);
    let succeeded = slots.iter().filter(|s| s.is_some()).count();
    let report = SweepReport {
        total,
        succeeded,
        failures,
        elapsed: started.elapsed(),
    };
    (slots, report)
}

/// Cartesian product of two parameter lists, row-major.
pub fn grid2<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

/// Cartesian product of three parameter lists, row-major.
pub fn grid3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut out = Vec::with_capacity(a.len() * b.len() * c.len());
    for x in a {
        for y in b {
            for z in c {
                out.push((x.clone(), y.clone(), z.clone()));
            }
        }
    }
    out
}

/// Evenly spaced values from `start` to `stop` inclusive.
pub fn linspace(start: f64, stop: f64, count: usize) -> Vec<f64> {
    match count {
        0 => Vec::new(),
        1 => vec![start],
        _ => (0..count)
            .map(|i| start + (stop - start) * i as f64 / (count - 1) as f64)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn into_result_reports_the_first_failure_in_input_order() {
        let fail_at = |bad: &'static [i32]| {
            let (_, report) = par_try_map((0..12).collect(), &TryMapOptions::default(), |&i| {
                if bad.contains(&i) {
                    Err(Error::SingularMatrix { column: i as usize })
                } else {
                    Ok(i)
                }
            });
            report.into_result()
        };
        assert!(fail_at(&[]).is_ok());
        assert!(matches!(
            fail_at(&[9, 4, 7]),
            Err(Error::SingularMatrix { column: 4 })
        ));
        let (_, report) = par_try_map(vec![0, 1], &TryMapOptions::default(), |&i: &i32| {
            assert!(i == 0, "corner {i} broke");
            Ok(i)
        });
        let panic = std::panic::catch_unwind(AssertUnwindSafe(|| report.into_result()))
            .expect_err("the panic is raised again");
        assert_eq!(panic.downcast_ref::<String>().unwrap(), "corner 1 broke");
    }

    #[test]
    fn try_map_isolates_panics_and_errors() {
        let items: Vec<i32> = (0..20).collect();
        let (out, report) = par_try_map(items, &TryMapOptions::default(), |&i| {
            if i == 3 {
                panic!("corner 3 blew up");
            }
            if i == 7 {
                return Err(Error::SingularMatrix { column: 1 });
            }
            Ok(i * 10)
        });
        assert_eq!(out.len(), 20);
        assert_eq!(report.total, 20);
        assert_eq!(report.succeeded, 18);
        assert_eq!(report.failures.len(), 2);
        assert!(!report.all_ok());
        for (i, slot) in out.iter().enumerate() {
            if i == 3 || i == 7 {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(i as i32 * 10));
            }
        }
        // Failures come back in input order with their causes.
        assert_eq!(report.failures[0].index, 3);
        assert!(matches!(
            &report.failures[0].failure,
            SweepFailure::Panicked(msg) if msg.contains("corner 3")
        ));
        assert_eq!(report.failures[1].index, 7);
        assert!(matches!(
            report.failures[1].failure,
            SweepFailure::Solver(Error::SingularMatrix { column: 1 })
        ));
        let summary = report.summary();
        assert!(summary.contains("18/20"), "{summary}");
        assert!(summary.contains("1 solver failure"), "{summary}");
        assert!(summary.contains("1 panicked"), "{summary}");
    }

    #[test]
    fn try_map_all_ok_summary() {
        let (out, report) = par_try_map((0..5).collect(), &TryMapOptions::default(), |&i: &i32| {
            Ok(i + 1)
        });
        assert_eq!(out.into_iter().flatten().sum::<i32>(), 15);
        assert!(report.all_ok());
        assert!(report.summary().contains("5/5 corners ok"));
    }

    #[test]
    fn zero_corner_deadline_times_every_corner_out() {
        use crate::analysis::budget::{BudgetTracker, Phase, RunBudget};
        let opts = TryMapOptions {
            corner_deadline: Some(Duration::ZERO),
            ..TryMapOptions::default()
        };
        // The closure polls the corner token the way a budgeted solve
        // does; a `Duration::ZERO` slice must cancel it before any work.
        let (out, report) = par_try_map((0..6).collect(), &opts, |&i: &i32| {
            let tracker = BudgetTracker::new(
                &RunBudget::unlimited(),
                Phase::DcOperatingPoint,
                Default::default(),
            );
            tracker.check()?;
            Ok(i)
        });
        assert!(out.iter().all(Option::is_none));
        assert_eq!(report.succeeded, 0);
        assert_eq!(report.failures.len(), 6);
        for fail in &report.failures {
            assert!(
                matches!(&fail.failure, SweepFailure::TimedOut { error, .. }
                    if error.is_deadline_exceeded()),
                "{}",
                fail.failure
            );
        }
        assert!(
            report.summary().contains("6 timed out"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn untrusted_corners_are_quarantined_without_retry() {
        let calls = AtomicUsize::new(0);
        let untrusted = || Error::UntrustedSolution {
            backward_error: 1.0e-2,
            tolerance: 1.0e-8,
            refinement_steps: 1,
            cond_estimate: 1.0e16,
        };
        let (out, report) = par_try_map((0..4).collect(), &TryMapOptions::default(), |&i: &i32| {
            calls.fetch_add(1, Ordering::SeqCst);
            if i == 2 {
                return Err(untrusted());
            }
            Ok(i)
        });
        assert_eq!(out, vec![Some(0), Some(1), None, Some(3)]);
        assert_eq!(report.quarantined(), 1);
        // The quarantined corner ran exactly once.
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 2);
        assert!(matches!(
            &report.failures[0].failure,
            SweepFailure::Untrusted { error } if error.is_untrusted_solution()
        ));
        assert!(
            report.failures[0]
                .failure
                .to_string()
                .starts_with("quarantined:"),
            "{}",
            report.failures[0].failure
        );
        assert!(
            report.summary().contains("1 quarantined"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn max_workers_pins_parallelism_without_changing_results() {
        let serial = TryMapOptions {
            max_workers: Some(1),
            ..TryMapOptions::default()
        };
        let wide = TryMapOptions {
            max_workers: Some(4),
            ..TryMapOptions::default()
        };
        let f = |&i: &i32| -> Result<i32, Error> { Ok(i * 3) };
        let (a, _) = par_try_map((0..32).collect(), &serial, f);
        let (b, _) = par_try_map((0..32).collect(), &wide, f);
        assert_eq!(a, b);
    }

    #[test]
    fn grids() {
        assert_eq!(
            grid2(&[1, 2], &['a', 'b']),
            vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]
        );
        assert_eq!(grid3(&[1], &[2], &[3, 4]), vec![(1, 2, 3), (1, 2, 4)]);
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(linspace(2.0, 3.0, 1), vec![2.0]);
        assert!(linspace(0.0, 1.0, 0).is_empty());
    }
}
