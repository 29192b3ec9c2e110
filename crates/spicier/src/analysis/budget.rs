//! Budgeted execution: iteration caps and cooperative cancellation for
//! every analysis entry point.
//!
//! Every public entry point (`operating_point`, `sweep_vsource`, the
//! transient family, `ac_analysis`, `noise_analysis`) opens a
//! `BudgetTracker` when it starts and consults it at each unit of work:
//! every Newton iteration of every recovery-ladder rung, every transient
//! timestep attempt, every AC/noise frequency point, every DC sweep point.
//! A violation surfaces as [`Error::DeadlineExceeded`], which the ladder
//! and salvage machinery treats as **non-retriable** — the budget is
//! spent, so burning the remainder on ladder escalation would defeat the
//! point.
//!
//! Two things stop a solve. A [`RunBudget`] in the options struct caps
//! Newton iterations and timestep attempts. Deadlines and cancels arrive
//! in one way only: a [`CancelToken`] — a cheap shared flag, optionally
//! with a fixed expiry instant — installed in thread-local storage with
//! [`with_corner_token`]. Sweep workers install one per corner and the
//! daemon one per unit of work, so a deadline or a remote cancel reaches
//! every solve inside without the closure threading anything through.
//!
//! The tracker is also the analysis' one cost account. It counts every
//! Newton iteration where the iteration completes its linear solve
//! (`dc::newton_run`), whichever caller asked for it: a ladder rung, a
//! rung that later dies on a singular matrix, a continuation attempt, a
//! transient step. The ladder charges each rung the account's delta over
//! the rung. When the analysis ends, `BudgetTracker::summary` builds
//! its [`TelemetrySummary`] from the account (wall clock and LU counters
//! since the account opened, Newton iterations, rung tally) and records
//! it in the process rollup. `sweep_vsource` takes one summary per point:
//! each summary closes the current stretch of the account and opens the
//! next.

use super::dc::RecoveryRung;
use super::tran::TranResult;
use crate::error::Error;
use crate::linalg::{LuStats, SolveQuality};
use crate::telemetry::{self, TelemetrySummary};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which analysis a budget violation interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// DC operating point (recovery ladder).
    DcOperatingPoint,
    /// DC source sweep (`sweep_vsource`).
    DcSweep,
    /// Transient analysis (adaptive-timestep loop).
    Transient,
    /// Small-signal AC analysis.
    Ac,
    /// Small-signal noise analysis.
    Noise,
}

impl Phase {
    /// Short label used in error messages and failure CSVs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::DcOperatingPoint => "dc-operating-point",
            Phase::DcSweep => "dc-sweep",
            Phase::Transient => "transient",
            Phase::Ac => "ac",
            Phase::Noise => "noise",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    expires_at: Option<Instant>,
    /// Parent token, when this token was derived with
    /// [`CancelToken::child_with_deadline`]: cancelling the parent cancels
    /// every descendant, while a child's own deadline or explicit cancel
    /// never propagates upward.
    parent: Option<Arc<TokenInner>>,
}

impl TokenInner {
    /// Whether an explicit `cancel()` landed on this token or any
    /// ancestor, or the expiry of any of them passed.
    fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
            || self.expires_at.is_some_and(|at| Instant::now() >= at)
            || self.parent.as_deref().is_some_and(TokenInner::cancelled)
    }
}

/// Cooperative cancellation handle, cheap to clone and share across
/// threads. Optionally carries a fixed expiry instant, which is how
/// per-corner deadlines work without a watchdog thread: the token is
/// "cancelled" the moment `Instant::now()` passes the expiry, and the
/// next budget check inside the solve observes it.
///
/// A root token ([`new`](Self::new)) never expires, so on a root token
/// [`is_cancelled`](Self::is_cancelled) reports exactly whether
/// [`cancel`](Self::cancel) was called — the daemon keeps one per job and
/// derives each unit's deadline token from it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no expiry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that auto-cancels `slice` from now. `Duration::ZERO` (or a
    /// slice too large to represent) yields a token that is expired — and
    /// therefore cancelled — immediately.
    #[must_use]
    pub fn with_deadline(slice: Duration) -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                expires_at: Some(deadline_instant(slice)),
                parent: None,
            }),
        }
    }

    /// Derives a child token that is cancelled whenever `self` is and
    /// additionally auto-cancels `slice` from now. Cancelling the child
    /// leaves `self` (and any sibling) untouched.
    #[must_use]
    pub fn child_with_deadline(&self, slice: Duration) -> CancelToken {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                expires_at: Some(deadline_instant(slice)),
                parent: Some(self.inner.clone()),
            }),
        }
    }

    /// Requests cancellation. Every clone of this token — and every child
    /// derived from it — observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the expiry (if any) passed,
    /// on this token or any ancestor.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled()
    }
}

fn deadline_instant(slice: Duration) -> Instant {
    Instant::now()
        .checked_add(slice)
        .unwrap_or_else(Instant::now)
}

/// Iteration caps for one analysis call. The default is unlimited, so
/// callers that set no cap pay only two `None` checks per Newton
/// iteration. Deadlines and cancels do not live here: they reach a solve
/// through the corner token ([`with_corner_token`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Cap on total Newton iterations across the call (summed over every
    /// ladder rung, homotopy step, and transient timestep).
    pub max_newton_iterations: Option<usize>,
    /// Cap on transient timestep attempts, accepted and rejected alike.
    pub max_timesteps: Option<usize>,
}

impl RunBudget {
    /// An unlimited budget (same as `Default`).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the total Newton-iteration cap.
    #[must_use]
    pub fn with_max_newton_iterations(mut self, cap: usize) -> Self {
        self.max_newton_iterations = Some(cap);
        self
    }

    /// Sets the transient timestep-attempt cap.
    #[must_use]
    pub fn with_max_timesteps(mut self, cap: usize) -> Self {
        self.max_timesteps = Some(cap);
        self
    }
}

thread_local! {
    static CORNER_TOKEN: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Runs `f` with `token` installed as this thread's corner token. Budget
/// checks inside any analysis `f` performs on this thread consult the
/// token in addition to the analysis' own [`RunBudget`]: this is the one
/// way a deadline or a cancel reaches a solve. Sweep workers impose
/// per-corner deadlines this way on closures that never mention budgets.
/// The token does not follow work onto other threads. Nested installs
/// shadow (and then restore) the outer token.
pub fn with_corner_token<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CORNER_TOKEN.with(|t| *t.borrow_mut() = self.0.take());
        }
    }
    let prev = CORNER_TOKEN.with(|t| t.borrow_mut().replace(token.clone()));
    let _restore = Restore(prev);
    f()
}

fn corner_token_cancelled() -> bool {
    CORNER_TOKEN.with(|t| t.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

/// Per-call budget and cost accounting, created at each public analysis
/// entry point and threaded down to the Newton loops.
#[derive(Debug)]
pub(crate) struct BudgetTracker {
    budget: RunBudget,
    phase: Phase,
    started: Instant,
    newton_iterations: usize,
    timesteps: usize,
    /// Fraction of the call's work completed, [0, 1]; maintained by the
    /// caller (ladder rung index, transient time, sweep point index) and
    /// embedded in the error so failures carry partial-progress info.
    progress: f64,
    /// The open stretch of the cost account: when it opened, the Newton
    /// count and LU counters then, and its Newton iterations per ladder
    /// rung so far.
    opened: Instant,
    newton_at_open: usize,
    lu_at_open: LuStats,
    rungs: Vec<(String, u64)>,
}

impl BudgetTracker {
    /// Opens the account of one analysis call; `lu` is the solver's
    /// counters now, so the summary counts only this call's LU work.
    pub(crate) fn new(budget: &RunBudget, phase: Phase, lu: LuStats) -> Self {
        let started = Instant::now();
        Self {
            budget: budget.clone(),
            phase,
            started,
            newton_iterations: 0,
            timesteps: 0,
            progress: 0.0,
            opened: started,
            newton_at_open: 0,
            lu_at_open: lu,
            rungs: Vec::new(),
        }
    }

    /// Which analysis this tracker accounts for.
    pub(crate) fn phase(&self) -> Phase {
        self.phase
    }

    /// Records `n` completed Newton iterations.
    pub(crate) fn count_newton(&mut self, n: usize) {
        self.newton_iterations += n;
    }

    /// Newton iterations counted since the call started.
    pub(crate) fn newton_iterations(&self) -> usize {
        self.newton_iterations
    }

    /// Charges `rung` with the Newton iterations counted since the
    /// account read `since`, and returns them.
    pub(crate) fn charge_rung(&mut self, rung: RecoveryRung, since: usize) -> usize {
        let spent = self.newton_iterations - since;
        match self
            .rungs
            .iter_mut()
            .find(|(label, _)| label == rung.label())
        {
            Some((_, total)) => *total += spent as u64,
            None => self.rungs.push((rung.label().to_string(), spent as u64)),
        }
        spent
    }

    /// Records one transient timestep attempt (accepted or rejected).
    pub(crate) fn count_timestep(&mut self) {
        self.timesteps += 1;
    }

    /// Updates the progress fraction carried by budget errors.
    pub(crate) fn set_progress(&mut self, progress: f64) {
        self.progress = progress.clamp(0.0, 1.0);
    }

    /// Closes the open stretch of the account into a [`TelemetrySummary`],
    /// records it in the process rollup and opens the next stretch. `lu`
    /// is the solver's counters now, `quality` the worst certification
    /// the stretch saw, and `steps` the transient whose step counters it
    /// carries.
    pub(crate) fn summary(
        &mut self,
        lu: LuStats,
        quality: SolveQuality,
        steps: Option<&TranResult>,
    ) -> TelemetrySummary {
        let step = |count: fn(&TranResult) -> usize| steps.map_or(0, |r| count(r) as u64);
        let summary = TelemetrySummary {
            analyses: 1,
            wall: self.opened.elapsed(),
            newton_iterations: (self.newton_iterations - self.newton_at_open) as u64,
            rung_iterations: std::mem::take(&mut self.rungs),
            accepted_steps: step(TranResult::accepted_steps),
            rejected_steps: step(TranResult::rejected_steps),
            replicated_periods: step(TranResult::replicated_periods),
            extrapolated_periods: step(TranResult::extrapolated_periods),
            lu: lu.delta_since(&self.lu_at_open),
            worst_backward_error: Some(quality.backward_error),
        };
        telemetry::record_summary(&summary);
        self.opened = Instant::now();
        self.newton_at_open = self.newton_iterations;
        self.lu_at_open = lu;
        summary
    }

    /// Checks the corner token, then both caps; `Err(DeadlineExceeded)`
    /// when one is spent.
    pub(crate) fn check(&self) -> Result<(), Error> {
        if corner_token_cancelled() {
            return Err(self.exceeded("cancelled-or-corner-deadline"));
        }
        if let Some(cap) = self.budget.max_newton_iterations {
            if self.newton_iterations >= cap {
                return Err(self.exceeded("newton-iteration-cap"));
            }
        }
        if let Some(cap) = self.budget.max_timesteps {
            if self.timesteps >= cap {
                return Err(self.exceeded("timestep-cap"));
            }
        }
        Ok(())
    }

    fn exceeded(&self, limit: &str) -> Error {
        let elapsed = self.started.elapsed();
        if telemetry::enabled() {
            // Budget consumption at the moment the limit tripped, then
            // the trajectory dump: a DeadlineExceeded must ship with the
            // events that burned the budget.
            telemetry::event(
                "budget_exceeded",
                &[
                    ("phase", self.phase.label().into()),
                    ("limit", limit.into()),
                    ("elapsed_ms", (elapsed.as_millis() as i64).into()),
                    ("newton_iterations", self.newton_iterations.into()),
                    ("timesteps", self.timesteps.into()),
                    ("progress", self.progress.into()),
                ],
            );
            telemetry::record_failure(
                "DeadlineExceeded",
                &format!(
                    "{} hit {limit} after {elapsed:.1?} at progress {:.2}",
                    self.phase.label(),
                    self.progress
                ),
            );
        }
        Error::DeadlineExceeded {
            phase: self.phase,
            elapsed,
            progress: self.progress,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        // Clones share the flag.
        let c = t.clone();
        assert!(c.is_cancelled());
    }

    #[test]
    fn zero_deadline_token_is_immediately_cancelled() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        let later = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!later.is_cancelled());
    }

    #[test]
    fn options_compare_by_value() {
        use crate::analysis::{AcOptions, DcOptions, NoiseOptions, TranOptions};
        use crate::netlist::NodeId;
        assert_eq!(RunBudget::default(), RunBudget::default());
        assert_eq!(DcOptions::default(), DcOptions::default());
        assert_eq!(TranOptions::new(1e-9), TranOptions::new(1e-9));
        assert_eq!(
            AcOptions::new("V1", vec![1e3]),
            AcOptions::new("V1", vec![1e3])
        );
        let out = NodeId(1);
        assert_eq!(
            NoiseOptions::new(out, vec![1e3]),
            NoiseOptions::new(out, vec![1e3])
        );
        let capped = DcOptions {
            budget: RunBudget::unlimited().with_max_newton_iterations(3),
            ..DcOptions::default()
        };
        assert_ne!(capped, DcOptions::default());
    }

    #[test]
    fn tracker_trips_on_each_limit() {
        let unlimited = BudgetTracker::new(
            &RunBudget::unlimited(),
            Phase::Transient,
            LuStats::default(),
        );
        assert!(unlimited.check().is_ok());

        let mut t = BudgetTracker::new(
            &RunBudget::unlimited().with_max_newton_iterations(2),
            Phase::DcOperatingPoint,
            LuStats::default(),
        );
        assert!(t.check().is_ok());
        t.count_newton(2);
        let err = t.check().unwrap_err();
        assert!(err.is_deadline_exceeded(), "{err}");
        assert!(err.to_string().contains("dc-operating-point"), "{err}");

        let mut t = BudgetTracker::new(
            &RunBudget::unlimited().with_max_timesteps(1),
            Phase::Transient,
            LuStats::default(),
        );
        t.count_timestep();
        assert!(t.check().is_err());

        let t = BudgetTracker::new(&RunBudget::unlimited(), Phase::Ac, LuStats::default());
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert!(with_corner_token(&expired, || t.check()).is_err());

        let cancel = CancelToken::new();
        let t = BudgetTracker::new(&RunBudget::unlimited(), Phase::Noise, LuStats::default());
        assert!(with_corner_token(&cancel, || t.check()).is_ok());
        cancel.cancel();
        assert!(with_corner_token(&cancel, || t.check()).is_err());
    }

    #[test]
    fn child_tokens_observe_parent_cancellation_not_vice_versa() {
        let hour = Duration::from_secs(3600);
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(hour);
        let sibling = parent.child_with_deadline(hour);
        assert!(!child.is_cancelled());
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel must not propagate up");
        assert!(!sibling.is_cancelled(), "or sideways");
        parent.cancel();
        assert!(sibling.is_cancelled());
    }

    #[test]
    fn child_deadline_expires_independently() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Duration::ZERO);
        assert!(child.is_cancelled(), "zero slice expires immediately");
        assert!(!parent.is_cancelled());
        // Expired parent reaches the child too.
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert!(expired
            .child_with_deadline(Duration::from_secs(3600))
            .is_cancelled());
    }

    #[test]
    fn root_cancel_reaches_derived_corner_tokens() {
        let root = CancelToken::new();
        let corner = root.child_with_deadline(Duration::from_secs(3600));
        assert!(!corner.is_cancelled());
        let remote = root.clone();
        std::thread::spawn(move || remote.cancel()).join().unwrap();
        assert!(root.is_cancelled());
        assert!(corner.is_cancelled());
        // The tracker observes it through the TLS install, the way sweep
        // workers wire it.
        let tracker =
            BudgetTracker::new(&RunBudget::unlimited(), Phase::DcSweep, LuStats::default());
        let err = with_corner_token(&corner, || tracker.check()).unwrap_err();
        assert!(err.is_deadline_exceeded());
    }

    #[test]
    fn corner_token_reaches_tracker_and_restores() {
        let tracker =
            BudgetTracker::new(&RunBudget::unlimited(), Phase::DcSweep, LuStats::default());
        let expired = CancelToken::with_deadline(Duration::ZERO);
        let inside = with_corner_token(&expired, || tracker.check());
        let err = inside.unwrap_err();
        assert!(err.is_deadline_exceeded());
        if let Error::DeadlineExceeded { phase, .. } = err {
            assert_eq!(phase, Phase::DcSweep);
        }
        // Token uninstalled after the scope ends.
        assert!(tracker.check().is_ok());
    }
}
