//! Adaptive transient analysis.
//!
//! The engine steps with the trapezoidal rule (switching to one
//! backward-Euler step right after each source breakpoint to suppress trap
//! ringing), controls the step size with a voltage-change criterion
//! (`dv_max` per step) plus Newton-failure backoff, and lands exactly on
//! the slope discontinuities of all sources.
//!
//! **Salvage:** when Newton fails mid-step under the trapezoidal rule, the
//! step is first retried at the same size with backward Euler (stiffer,
//! L-stable) before the step size is cut. When the step size still
//! underflows `h_min`, [`transient_salvage`] returns everything computed so
//! far — partial waveform plus a [`TranFailure`] diagnostic — instead of
//! discarding hours of simulation; [`transient`] keeps the strict
//! all-or-nothing contract on top of it.
//!
//! **Structure:** one run's state lives in a crate-private `Stepper`: time,
//! step size, predictor history, the backward-Euler flags, the breakpoint
//! cursor, the assembler and solver workspace, the budget, and the result
//! recorded so far. `Stepper::start` finds the operating point and records
//! the `t = 0` sample; `run_until(t)` makes step attempts until `t` is
//! reached, and never sizes a step for it, so a run stopped and resumed
//! steps exactly like one run straight through; `jump` applies a copy or
//! an extrapolation (below); `finish` rolls the run up. The public entry
//! points all go through one short driver that runs the `Stepper` from
//! period boundary to period boundary, lets the period watcher read the
//! state and decide at each, applies its skip, and then runs to `t_stop`.
//!
//! **Periodic steady state and envelope extrapolation:** when every
//! independent source is DC or a `Pulse` with one shared `(delay,
//! period)`, the pulse starts are the run's period boundaries. The stepper
//! lands on each one (they are breakpoints) and compares the state with
//! the previous boundary's. Let `Δ_i = x_i(b_j) − x_i(b_{j−1})`, `Δ'_i`
//! and `Δ''_i` the changes across the two periods before, `N` the
//! periods, whole or partial, left until `t_stop`, and `tol_i` the Newton
//! absolute tolerance (`dc.abstol_v` for node voltages, `dc.abstol_i` for
//! branch currents). Unknown `i` is *calm* when `N·|Δ_i| ≤ tol_i`.
//!
//! - *Copy.* After two boundaries in a row where every unknown is calm,
//!   the stepper copies the last simulated period forward up to the
//!   second-to-last pulse start. The state it resumes from (`x`, charges,
//!   predictor history, step size) is the one a simulated run would hold
//!   there, because the state is periodic.
//! - *Extrapolate.* Otherwise, once two periods have been simulated since
//!   the start or the last jump, every unknown that is not calm must allow
//!   the jump under one of two models, whichever allows it further:
//!   - *steady drift*, `Δ` per period: with `d_i = |Δ_i − Δ'_i|`, up to
//!     `M` periods with `M(M+1)/2·d_i ≤ tol_i` (the jump's extrapolation
//!     error stays within the tolerance) and `M·d_i ≤ |Δ_i|` (the drift is
//!     steady);
//!   - *geometric decay*, once three periods have been simulated: the
//!     change scales by `r_i = Δ_i/Δ'_i` a period, with `r_i` and
//!     `r'_i = Δ'_i/Δ''_i` positive, up to the `M` whose cumulative error
//!     stays within `tol_i` if the ratio keeps changing by `r_i − r'_i` a
//!     period.
//!
//!   For node voltages both models also keep the jump's move within
//!   `dv_max` (a jump moves a node no further than one step may, so a
//!   clamp or threshold ahead is met by simulated periods). The stepper
//!   jumps the largest such `M`, capped at the second-to-last pulse start,
//!   when `M ≥ 2`. Calm unknowns are copied; a drifter moves by
//!   `Δ_i·(r_i + … + r_i^M)`, with `r_i = 1` (so `M·Δ_i`) when the steady
//!   model carries it that far, and the predictor's previous point with
//!   it. Every committed charge moves by the change its device equation
//!   gives between the old and the new `x`. The repeated samples of a
//!   steady probe are shifted by `m·Δ_i` in repeat `m`; those of a
//!   decaying probe by their own change over the period before times
//!   `r_i + … + r_i^m`, sample by sample. The stepper then simulates two
//!   fresh periods and decides again.
//!
//! The tolerance bounds each jump's error, not the run's: jumps repeat
//! every two or three simulated periods, so their errors may add up. The
//! run-wide error is measured against the full transient, not bounded; on
//! the paper's detector sweeps it reads at most 25 µV.
//!
//! Both jumps land on a boundary, and the final period and the tail are
//! always simulated. Any PWL or SIN source, pulses with different delays
//! or periods, or fewer than three boundaries turn the watcher off; such a
//! run is stepped in full. The step, Newton and LU counters count
//! simulated work only; [`TranResult::replicated_periods`] reports the
//! periods not simulated and [`TranResult::extrapolated_periods`] the
//! extrapolated subset.

use super::budget::{BudgetTracker, Phase, RunBudget};
use super::dc::{self, DcOptions};
use super::mna::{Assembler, EvalMode, Integration, Method, SolveWorkspace};
use crate::error::Error;
use crate::linalg::{LuStats, SolveQuality};
use crate::netlist::{Circuit, Element, NodeId, SourceWave};
use crate::telemetry::{self, TelemetrySummary};
use std::time::Instant;

/// Which quantities a transient run records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Probe {
    /// Record every node voltage (default).
    #[default]
    AllNodes,
    /// Record only the listed nodes — use for big sweeps to save memory.
    Nodes(Vec<NodeId>),
}

/// Options for [`transient`].
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// End time, seconds. The largest step is `t_stop / 200`; the first
    /// step, and the restart step after each breakpoint, is a hundredth
    /// of that.
    pub t_stop: f64,
    /// Smallest allowed step before the run aborts.
    pub h_min: f64,
    /// Largest node-voltage change accepted in one step, volts. This is the
    /// accuracy knob: smaller values resolve edges more finely.
    pub dv_max: f64,
    /// Integration method for ordinary steps.
    pub method: Method,
    /// What to record.
    pub probes: Probe,
    /// Newton/convergence options shared with the DC stage.
    pub dc: DcOptions,
    /// SPICE-style `.IC`: node voltages forced at `t = 0` *after* the DC
    /// operating point (charge states are initialized from the overridden
    /// vector). Useful to start an analysis from a known pre-history, e.g.
    /// a detector capacitor still at the rail when test mode engages.
    pub initial_voltages: Vec<(NodeId, f64)>,
    /// Iteration caps for the whole transient call — total Newton
    /// iterations and timestep attempts. This field (not `dc.budget`,
    /// which only governs standalone DC calls) bounds the run, including
    /// its initial operating point.
    pub budget: RunBudget,
}

impl TranOptions {
    /// Reasonable defaults for a run of length `t_stop` seconds.
    pub fn new(t_stop: f64) -> Self {
        Self {
            t_stop,
            h_min: 1.0e-18,
            dv_max: 0.06,
            method: Method::Trapezoidal,
            probes: Probe::AllNodes,
            dc: DcOptions::default(),
            initial_voltages: Vec::new(),
            budget: RunBudget::default(),
        }
    }

    /// Sets the per-step voltage-change bound (accuracy knob).
    pub fn with_dv_max(mut self, dv_max: f64) -> Self {
        self.dv_max = dv_max;
        self
    }

    /// Restricts recording to the given nodes.
    pub fn with_probes(mut self, nodes: Vec<NodeId>) -> Self {
        self.probes = Probe::Nodes(nodes);
        self
    }

    /// Forces node voltages at `t = 0` (SPICE `.IC`).
    pub fn with_initial_voltage(mut self, node: NodeId, volts: f64) -> Self {
        self.initial_voltages.push((node, volts));
        self
    }

    /// Checks the options and returns the largest and the first step.
    fn resolved(&self) -> Result<(f64, f64), Error> {
        for (name, value) in [
            ("t_stop", self.t_stop),
            ("dv_max", self.dv_max),
            ("h_min", self.h_min),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(Error::InvalidOptions(format!(
                    "{name} must be finite and positive, got {value}"
                )));
            }
        }
        let h_max = self.t_stop / 200.0;
        Ok((h_max, h_max / 100.0))
    }
}

/// Diagnostic attached to a salvaged (incomplete) transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TranFailure {
    /// Simulation time reached before the run gave up, seconds.
    pub time: f64,
    /// Fraction of the requested interval that was completed, in `[0, 1]`.
    pub progress: f64,
    /// The underlying solver error (timestep underflow or convergence).
    pub error: Error,
}

impl TranFailure {
    /// One-line human-readable account, e.g.
    /// `"died at t = 1.2e-9 s (34% of the run): transient timestep …"`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "died at t = {:.4e} s ({:.0}% of the run): {}",
            self.time,
            self.progress * 100.0,
            self.error
        )
    }
}

/// Result of a transient run: a shared time axis plus one trace per probe.
///
/// A result from [`transient_salvage`] may be *partial*: check
/// [`TranResult::failure`] (or [`TranResult::is_complete`]) before treating
/// the waveform as covering the full requested interval.
///
/// The time axis holds the `t = 0` sample, one sample per accepted step,
/// and the samples of every period copied or extrapolated instead of
/// simulated ([`TranResult::replicated_periods`]; see the [module
/// docs](self)). An extrapolated period repeats the last simulated one
/// with each drifting trace shifted by its per-period change. The step,
/// Newton and LU counters count simulated work only, so `time().len()`
/// equals `accepted_steps() + 1` plus the copied samples, and equals
/// `accepted_steps() + 1` exactly when no period was skipped.
#[derive(Debug, Clone)]
pub struct TranResult {
    time: Vec<f64>,
    nodes: Vec<NodeId>,
    data: Vec<Vec<f64>>,
    accepted_steps: usize,
    rejected_steps: usize,
    newton_iterations: usize,
    replicated_periods: usize,
    extrapolated_periods: usize,
    replicated_samples: usize,
    failure: Option<TranFailure>,
    quality: SolveQuality,
    telemetry: TelemetrySummary,
}

/// Equality covers the numerical outcome only; the telemetry rollup is
/// excluded because its wall-clock component differs between otherwise
/// identical runs.
impl PartialEq for TranResult {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.nodes == other.nodes
            && self.data == other.data
            && self.accepted_steps == other.accepted_steps
            && self.rejected_steps == other.rejected_steps
            && self.newton_iterations == other.newton_iterations
            && self.replicated_periods == other.replicated_periods
            && self.extrapolated_periods == other.extrapolated_periods
            && self.failure == other.failure
            && self.quality == other.quality
    }
}

impl TranResult {
    /// The time axis, seconds.
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// The recorded trace of `node`, if it was probed.
    pub fn trace(&self, node: NodeId) -> Option<&[f64]> {
        self.nodes
            .iter()
            .position(|&n| n == node)
            .map(|k| self.data[k].as_slice())
    }

    /// Nodes that were recorded.
    pub fn probed_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of accepted timesteps. Only simulated steps count: the
    /// samples of periods copied or extrapolated instead of simulated do
    /// not.
    pub fn accepted_steps(&self) -> usize {
        self.accepted_steps
    }

    /// Number of rejected timestep attempts.
    pub fn rejected_steps(&self) -> usize {
        self.rejected_steps
    }

    /// Total Newton iterations across the run, the initial operating
    /// point's and those of steps whose Newton failed included
    /// (performance diagnostic).
    pub fn newton_iterations(&self) -> usize {
        self.newton_iterations
    }

    /// Stimulus periods not simulated: copied forward once the run reached
    /// periodic steady state, or extrapolated along a steady per-period
    /// drift (see the [module docs](self)). Zero for a run that was not
    /// skipped.
    pub fn replicated_periods(&self) -> usize {
        self.replicated_periods
    }

    /// The subset of [`replicated_periods`](Self::replicated_periods)
    /// that was extrapolated rather than copied.
    pub fn extrapolated_periods(&self) -> usize {
        self.extrapolated_periods
    }

    /// Why the run stopped early, when it did. `None` means the run covered
    /// the full requested interval.
    pub fn failure(&self) -> Option<&TranFailure> {
        self.failure.as_ref()
    }

    /// Whether the run covered the full requested interval.
    pub fn is_complete(&self) -> bool {
        self.failure.is_none()
    }

    /// Worst linear-solve certification across the run: the pessimistic
    /// merge of the operating point's quality and that of every completed
    /// Newton block (accepted or rejected steps alike).
    pub fn quality(&self) -> SolveQuality {
        self.quality
    }

    /// Telemetry rollup for this run: wall time, step and Newton counters,
    /// and the LU-kernel work attributable to this call (see
    /// [`TelemetrySummary`]).
    pub fn telemetry(&self) -> &TelemetrySummary {
        &self.telemetry
    }
}

/// Breakpoint spacing below which two breakpoints are the same instant.
const BP_EPS: f64 = 1e-18;

/// The period boundaries of a periodically driven run and the history the
/// copy and extrapolation rules compare across them (see the module docs).
/// At each boundary it reads the [`Stepper`] and decides; the stepper
/// applies the skip.
#[derive(Default)]
struct PeriodicSkip {
    period: f64,
    /// Number of boundaries: pulse starts in `[0, t_stop)`.
    count: usize,
    /// Index and time of the next boundary.
    next_index: usize,
    next: f64,
    /// State at the previous boundary, and the indices of its sample and
    /// the one a boundary before. Empty before the first boundary.
    last: Vec<f64>,
    last_sample: usize,
    before_sample: usize,
    /// Change of every unknown across the last period (`Δ`) and the one
    /// before (`Δ'`), and how many of the two were simulated since the
    /// start or the last jump.
    delta: Vec<f64>,
    delta_before: Vec<f64>,
    deltas: usize,
    /// The unknowns that were not calm at the previous boundary, with the
    /// longest jump the steady model allows each.
    drifting: Vec<(Drift, f64)>,
    /// Whether every unknown was calm at the previous boundary.
    calm: bool,
}

/// An unknown that a jump extrapolates: its change across the last period
/// and the ratio by which that change is taken to scale each period, 1
/// for a steady drift.
#[derive(Clone, Copy)]
struct Drift {
    unknown: usize,
    delta: f64,
    ratio: f64,
}

/// How a skip fills the periods it does not simulate.
enum SkipKind {
    /// Repeat the last period verbatim; the run is periodic.
    Copy,
    /// Repeat it with every drifting unknown advanced along its ratio.
    Extrapolate {
        drift: Vec<Drift>,
        /// The sample at the boundary two periods back.
        before_sample: usize,
    },
}

/// A skip decided at a boundary: repeat the samples after `first_sample`
/// up to and including the boundary's own, `periods` times.
struct Skip {
    kind: SkipKind,
    /// Time of the boundary.
    from: f64,
    period: f64,
    first_sample: usize,
    periods: usize,
}

/// `r + r² + … + r^m` for `r > 0`: how many periods' worth of its last
/// change an unknown scaling that change by `r` each period moves in `m`
/// periods. Exactly `m` when `r = 1`, and accurate near it: `r^m − 1` is
/// taken as `expm1(m·ln_1p(r − 1))`, where `r − 1` is exact.
fn ratio_sum(r: f64, m: usize) -> f64 {
    if r == 1.0 {
        m as f64
    } else {
        r * (m as f64 * (r - 1.0).ln_1p()).exp_m1() / (r - 1.0)
    }
}

/// The longest jump, in periods, that an unknown changing by `delta` per
/// period, and by `bend` more or less than in the period before, allows:
/// the largest `M` with `M(M+1)/2·bend ≤ tol` (the jump's extrapolation
/// error stays within the tolerance), `M·bend ≤ |delta|` (the drift is
/// steady) and `M·|delta| ≤ reach` (the jump moves the unknown no further
/// than one step may). Zero when a bound is not a number.
fn steady_periods(delta: f64, bend: f64, tol: f64, reach: f64) -> f64 {
    let bounds = [
        ((1.0 + 8.0 * tol / bend).sqrt() - 1.0) / 2.0,
        delta.abs() / bend,
        reach / delta.abs(),
    ];
    if bounds.iter().any(|b| b.is_nan()) {
        return 0.0;
    }
    bounds.into_iter().fold(f64::INFINITY, f64::min).floor()
}

/// The longest jump, at most `cap` periods, along a geometric decay or
/// growth: an unknown whose change `delta` across the last period is
/// `ratio` times the one before, which was `ratio_before` times its own
/// predecessor. The largest `M` whose cumulative error,
/// `|delta|·Σ_{m≤M} |Π_{k≤m}(ratio + k·(ratio − ratio_before)) − ratio^m|`,
/// stays within `tol` if the ratio keeps changing as it did, and whose
/// move `|delta|·(ratio + … + ratio^M)` stays within `reach`. Zero unless
/// both ratios are positive.
fn geometric_periods(
    delta: f64,
    ratio: f64,
    ratio_before: f64,
    tol: f64,
    reach: f64,
    cap: f64,
) -> f64 {
    if !(ratio > 0.0 && ratio_before > 0.0) {
        return 0.0;
    }
    let bend = ratio - ratio_before;
    let (mut model, mut truth, mut error, mut sum) = (1.0, 1.0, 0.0, 0.0);
    let mut periods = 0.0;
    while periods < cap {
        let m = periods + 1.0;
        model *= ratio;
        truth *= (ratio + m * bend).max(0.0);
        error += (truth - model).abs();
        sum += model;
        if !(delta.abs() * error <= tol && delta.abs() * sum <= reach) {
            break;
        }
        periods = m;
    }
    periods
}

/// The change over one period of `trace` at every sample after `first`:
/// the sample minus the trace one `period` earlier, interpolated linearly
/// between the samples `before..=first` of the period before.
fn period_changes(
    time: &[f64],
    trace: &[f64],
    before: usize,
    first: usize,
    period: f64,
) -> Vec<f64> {
    let mut p = before;
    (first + 1..time.len())
        .map(|k| {
            let t = time[k] - period;
            while p + 1 < first && time[p + 1] <= t {
                p += 1;
            }
            let w = ((t - time[p]) / (time[p + 1] - time[p])).clamp(0.0, 1.0);
            trace[k] - (trace[p] + w * (trace[p + 1] - trace[p]))
        })
        .collect()
}

/// The waveforms of `circuit`'s independent sources.
fn source_waves(circuit: &Circuit) -> impl Iterator<Item = &SourceWave> {
    circuit.elements().filter_map(|(_, e)| match e {
        Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } => Some(wave),
        _ => None,
    })
}

impl PeriodicSkip {
    /// The boundaries of `circuit`'s run to `t_stop`, or `None` when the
    /// skip does not apply: a source other than DC or one shared pulse
    /// train, or fewer than three boundaries. Allocates nothing then.
    fn new(circuit: &Circuit, t_stop: f64) -> Option<Self> {
        let mut shared = None;
        for wave in source_waves(circuit).filter(|w| !matches!(w, SourceWave::Dc(_))) {
            let train = wave.pulse_period()?;
            if *shared.get_or_insert(train) != train {
                return None;
            }
        }
        let (delay, period) = shared?;
        let mut starts = SourceWave::pulse_starts(delay, period, t_stop).filter(|&b| b >= 0.0);
        let next = starts.next()?;
        let count = 1 + starts.count();
        (count >= 3).then(|| Self {
            period,
            count,
            next,
            ..Self::default()
        })
    }

    /// The time of the next boundary, while one is left.
    fn next_boundary(&self) -> Option<f64> {
        (self.next_index < self.count).then_some(self.next)
    }

    /// Compares the state `run` stands in at the next boundary with the
    /// previous boundary's and decides whether to skip from there. Moves
    /// past the boundary and the periods a skip covers;
    /// [`remember`](Self::remember) follows once the skip is applied.
    fn boundary(&mut self, run: &Stepper<'_>) -> Option<Skip> {
        let (x, opts) = (&run.x, run.opts);
        let n_nodes = run.assembler.circuit().node_unknowns();
        let j = self.next_index;
        let left = (self.count - j) as f64;
        // Both jumps land at most on the second-to-last boundary, which
        // must lie ahead.
        let target = self.count - 2;
        let seen = !self.last.is_empty();
        let mut worst = 0.0f64;
        let mut jump = if self.deltas > 0 && j < target {
            (target - j) as f64
        } else {
            0.0
        };
        let mut limiter = None;
        self.drifting.clear();
        // Before the first boundary `last` is empty and nothing compares.
        for (i, (now, before)) in x.iter().zip(&self.last).enumerate() {
            let delta = now - before;
            // A jump moves a node voltage at most `dv_max`, as one step
            // may; branch currents follow the nodes.
            let (tol, reach) = if i < n_nodes {
                (opts.dc.abstol_v, opts.dv_max)
            } else {
                (opts.dc.abstol_i, f64::INFINITY)
            };
            let drift = left * delta.abs();
            let is_calm = drift <= tol;
            let (delta_1, delta_2) = (self.delta[i], self.delta_before[i]);
            let ratio = delta / delta_1;
            let mut steady = 0.0;
            if !is_calm && jump > 0.0 {
                // Each unknown takes whichever model jumps it further.
                steady = steady_periods(delta, (delta - delta_1).abs(), tol, reach);
                let mut allowed = steady;
                if steady < jump && self.deltas > 1 {
                    let ratio_before = delta_1 / delta_2;
                    allowed = allowed.max(geometric_periods(
                        delta,
                        ratio,
                        ratio_before,
                        tol,
                        reach,
                        jump,
                    ));
                }
                if allowed < jump {
                    jump = allowed;
                    limiter = Some(i);
                }
            }
            self.delta_before[i] = delta_1;
            self.delta[i] = delta;
            if !is_calm {
                let drift = Drift {
                    unknown: i,
                    delta,
                    ratio,
                };
                self.drifting.push((drift, steady));
            }
            worst = worst.max(drift);
        }
        let calm = seen && self.drifting.is_empty();
        let (kind, periods, name) = if calm && self.calm && j < target {
            (SkipKind::Copy, target - j, "copy")
        } else if !calm && jump >= 2.0 {
            // An unknown the steady model carries as far keeps its steady
            // drift, so a jump that it allows for all of them is the same
            // as without the geometric model.
            let drift = self
                .drifting
                .iter()
                .map(|&(d, steady)| Drift {
                    ratio: if steady >= jump { 1.0 } else { d.ratio },
                    ..d
                })
                .collect();
            let kind = SkipKind::Extrapolate {
                drift,
                before_sample: self.before_sample,
            };
            (kind, jump as usize, "extrapolate")
        } else {
            self.calm = calm;
            self.deltas = if seen { (self.deltas + 1).min(2) } else { 0 };
            self.next_index += 1;
            self.next += self.period;
            return None;
        };
        if telemetry::enabled() {
            // `worst` is the largest `N·|Δx_i|`; `limiter` the unknown
            // that bounded an extrapolating jump, -1 when the
            // second-to-last boundary did.
            telemetry::event(
                "periodic_skip",
                &[
                    ("t", run.t.into()),
                    ("kind", name.into()),
                    ("boundary", j.into()),
                    ("periods", periods.into()),
                    ("worst", worst.into()),
                    ("limiter", limiter.map_or(-1, |i| i as i64).into()),
                ],
            );
        }
        let skip = Skip {
            kind,
            from: self.next,
            period: self.period,
            first_sample: self.last_sample,
            periods,
        };
        // The history restarts at the boundary the skip lands on.
        (self.calm, self.deltas) = (false, 0);
        self.next_index += 1 + periods;
        for _ in 0..=periods {
            self.next += self.period;
        }
        Some(skip)
    }

    /// Records where `run` stands after a boundary and any skip from it:
    /// what the next boundary compares against.
    fn remember(&mut self, run: &Stepper<'_>) {
        self.delta.resize(run.x.len(), 0.0);
        self.delta_before.resize(run.x.len(), 0.0);
        self.last.clear();
        self.last.extend_from_slice(&run.x);
        self.before_sample = self.last_sample;
        self.last_sample = run.result.time.len() - 1;
    }
}

/// One transient run, resumable between calls: where it stands (`t`, `x`),
/// its step control and predictor history, the breakpoints ahead, the
/// solver state, the budget and the result recorded so far.
/// [`transient_salvage_with`] drives it.
struct Stepper<'a> {
    opts: &'a TranOptions,
    ws: &'a mut SolveWorkspace,
    assembler: Assembler<'a>,
    tracker: BudgetTracker,
    /// Source breakpoints not yet stepped past.
    breakpoints: std::iter::Peekable<std::vec::IntoIter<f64>>,
    h_max: f64,
    h_init: f64,
    t: f64,
    /// The next step to try.
    h: f64,
    x: Vec<f64>,
    /// Predictor history: the accepted point before `x` and the step that
    /// left it (zero before the first step).
    x_prev: Vec<f64>,
    h_prev: f64,
    /// Newton's guess, rotated into `x` on accept.
    guess: Vec<f64>,
    /// Step with backward Euler next: the last accepted step landed on a
    /// breakpoint, or the run stands at its DC start.
    force_be: bool,
    /// Salvage: retry a failed trapezoidal step with backward Euler.
    be_retry: bool,
    result: TranResult,
    /// The initial operating point's Newton iterations per ladder rung.
    op_rungs: Vec<(String, u64)>,
    started: Instant,
    lu_before: LuStats,
    _span: telemetry::Span,
}

impl<'a> Stepper<'a> {
    /// Finds the operating point, applies the `.IC` overrides, initializes
    /// the charges, collects the breakpoints and records the `t = 0`
    /// sample.
    fn start(
        circuit: &'a Circuit,
        opts: &'a TranOptions,
        ws: &'a mut SolveWorkspace,
    ) -> Result<Self, Error> {
        let (h_max, h_init) = opts.resolved()?;
        let started = Instant::now();
        let lu_before = ws.solver.stats();
        let span = telemetry::span("transient");
        let mut assembler = Assembler::new(circuit);
        let mut tracker = BudgetTracker::new(&opts.budget, Phase::Transient);

        // Initial operating point with sources at t = 0.
        let (mut x, op) =
            dc::recover_operating_point(circuit, &opts.dc, &mut assembler, ws, &mut tracker)?;
        // Apply .IC overrides before charge initialization so capacitors start
        // from the forced voltages.
        for &(node, volts) in &opts.initial_voltages {
            if let Some(i) = node.unknown() {
                x[i] = volts;
            }
        }
        assembler.init_charges(&x);

        let mut breakpoints = Vec::new();
        for wave in source_waves(circuit) {
            wave.breakpoints(opts.t_stop, &mut breakpoints);
        }
        breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        breakpoints.dedup_by(|a, b| (*a - *b).abs() < BP_EPS);

        let nodes: Vec<NodeId> = match &opts.probes {
            Probe::AllNodes => circuit.node_ids().collect(),
            Probe::Nodes(list) => list.clone(),
        };
        let mut run = Self {
            result: TranResult {
                time: Vec::new(),
                data: vec![Vec::new(); nodes.len()],
                nodes,
                accepted_steps: 0,
                rejected_steps: 0,
                newton_iterations: op.total_iterations(),
                replicated_periods: 0,
                extrapolated_periods: 0,
                replicated_samples: 0,
                failure: None,
                quality: ws.solver.last_quality(),
                telemetry: TelemetrySummary::default(),
            },
            op_rungs: op.rung_iterations(),
            opts,
            ws,
            assembler,
            tracker,
            breakpoints: breakpoints.into_iter().peekable(),
            h_max,
            h_init,
            t: 0.0,
            h: h_init,
            x_prev: vec![0.0; x.len()],
            h_prev: 0.0,
            guess: vec![0.0; x.len()],
            x,
            force_be: true,
            be_retry: false,
            started,
            lu_before,
            _span: span,
        };
        run.record();
        Ok(run)
    }

    /// Steps until `t` reaches `until` (within [`BP_EPS`]) or the end of
    /// the run, or the run fails, and returns whether the run stands on
    /// `until`: its last accepted step landed on a breakpoint within
    /// [`BP_EPS`] of it (the operating point at `t = 0` counts as one).
    /// `until` never sizes a step, so a run stopped and resumed steps
    /// exactly as one run through. `f64::INFINITY` runs to the end; on a
    /// run shorter than a microsecond, `t_stop` may stop up to [`BP_EPS`]
    /// short of the end test `t ≥ t_stop·(1 − 1e-12)`.
    fn run_until(&mut self, until: f64) -> bool {
        while self.result.failure.is_none()
            && self.t < self.opts.t_stop * (1.0 - 1e-12)
            && self.t < until - BP_EPS
        {
            self.attempt();
        }
        // `force_be` is set exactly when the last accepted step hit a
        // breakpoint, and at the start.
        self.force_be && self.t >= until - BP_EPS && self.t <= until + BP_EPS
    }

    /// Fraction of the requested interval done, in `[0, 1]`.
    fn progress(&self) -> f64 {
        (self.t / self.opts.t_stop).clamp(0.0, 1.0)
    }

    /// Stops the run at `t`, keeping everything recorded so far.
    fn fail(&mut self, error: Error) {
        self.result.failure = Some(TranFailure {
            time: self.t,
            progress: self.progress(),
            error,
        });
    }

    /// Appends the sample at `t`.
    fn record(&mut self) {
        self.result.time.push(self.t);
        for (node, trace) in self.result.nodes.iter().zip(&mut self.result.data) {
            trace.push(node.unknown().map_or(0.0, |i| self.x[i]));
        }
    }

    /// One step attempt from `t`: lands on the breakpoint ahead, charges
    /// the budget, predicts, solves, and accepts, rejects or fails the step.
    fn attempt(&mut self) {
        let (opts, t) = (self.opts, self.t);
        self.h = self.h.min(self.h_max).min(opts.t_stop - t);
        // Land exactly on the next breakpoint.
        let end = t + self.h;
        let bp = self.breakpoints.peek().filter(|&&bp| end >= bp - 1e-21);
        if let Some(&bp) = bp {
            self.h = bp - t;
            if self.h <= 0.0 {
                self.breakpoints.next();
                return;
            }
        }
        let (h, hit_bp) = (self.h, bp.is_some());

        // Budget gate: one timestep attempt (accepted or rejected) is the
        // unit of accounting. A budget that runs out here salvages the
        // prefix computed so far instead of erroring the whole run.
        self.tracker.set_progress(self.progress());
        if let Err(err) = self.tracker.check() {
            return self.fail(err);
        }
        self.tracker.count_timestep();

        // Predictor: linear extrapolation of the last accepted step.
        self.guess.copy_from_slice(&self.x);
        if self.h_prev > 0.0 {
            let r = h / self.h_prev;
            for ((g, &x), &x_prev) in self.guess.iter_mut().zip(&self.x).zip(&self.x_prev) {
                *g = x + (x - x_prev) * r;
            }
        }

        let method = if self.force_be || self.be_retry {
            Method::BackwardEuler
        } else {
            opts.method
        };
        let mode = EvalMode {
            integ: Integration::Step { method, h },
            time: t + h,
            gmin: opts.dc.gmin,
            source_scale: 1.0,
        };
        self.assembler.reset_junctions(&self.x);
        let solved = dc::newton(
            &mut self.assembler,
            &mode,
            &mut self.guess,
            &opts.dc,
            self.ws,
            &mut self.tracker,
        );
        let result = &mut self.result;
        match solved {
            Ok(iters) => {
                result.newton_iterations += iters;
                result.quality = result.quality.worst(self.ws.solver.last_quality());
                // Voltage-change step control.
                let n = self.assembler.circuit().node_unknowns();
                let dv = self.guess[..n]
                    .iter()
                    .zip(&self.x[..n])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                if dv > opts.dv_max && h > 4.0 * opts.h_min && !(hit_bp && h <= self.h_init) {
                    result.rejected_steps += 1;
                    self.be_retry = false;
                    if telemetry::enabled() {
                        telemetry::event(
                            "step_reject_dv",
                            &[
                                ("t", t.into()),
                                ("h", h.into()),
                                ("dv", dv.into()),
                                ("dv_max", opts.dv_max.into()),
                            ],
                        );
                    }
                    self.h *= (opts.dv_max / dv).max(0.25) * 0.9;
                } else {
                    self.accept(iters, dv, hit_bp);
                }
            }
            // A spent budget or a failed certification inside the step is
            // non-retriable: no BE retry, no step shrink — salvage the
            // prefix immediately.
            Err(err) if err.is_non_retriable() => self.fail(err),
            Err(err) => {
                result.rejected_steps += 1;
                if let Error::DcNoConvergence { iterations, .. } = err {
                    result.newton_iterations += iterations;
                }
                // Salvage rung 1: a trapezoidal step that Newton rejects is
                // often rescued by backward Euler at the *same* size (no
                // trap ringing, heavier damping). Try that once before
                // shrinking the step.
                if !self.be_retry && method == Method::Trapezoidal {
                    self.be_retry = true;
                    if telemetry::enabled() {
                        telemetry::event("be_retry", &[("t", t.into()), ("h", h.into())]);
                    }
                    return;
                }
                self.be_retry = false;
                if telemetry::enabled() {
                    telemetry::event("step_reject_newton", &[("t", t.into()), ("h", h.into())]);
                }
                self.h *= 0.25;
                if self.h < opts.h_min {
                    // Salvage rung 2: keep the waveform computed so far and
                    // report where and why the run died.
                    let step = self.h;
                    self.fail(match err {
                        e @ Error::SingularMatrix { .. } => e,
                        _ => Error::TimestepTooSmall { time: t, step },
                    });
                }
            }
        }
    }

    /// Accepts the step of size `h` just solved into `guess`, which moved
    /// the nodes by `dv` in `iters` Newton iterations, and sizes the next.
    fn accept(&mut self, iters: usize, dv: f64, hit_bp: bool) {
        let h = self.h;
        self.assembler.commit_charges();
        std::mem::swap(&mut self.x_prev, &mut self.x);
        std::mem::swap(&mut self.x, &mut self.guess);
        self.h_prev = h;
        self.t += h;
        self.result.accepted_steps += 1;
        self.record();
        if telemetry::enabled() {
            telemetry::event(
                "step_accept",
                &[
                    ("t", self.t.into()),
                    ("h", h.into()),
                    ("iters", iters.into()),
                    ("dv", dv.into()),
                ],
            );
        }
        self.be_retry = false;
        if hit_bp {
            self.breakpoints.next();
            self.h = self.h_init;
            self.force_be = true;
        } else {
            self.force_be = false;
            if iters <= 5 && dv < 0.5 * self.opts.dv_max {
                self.h *= 1.5;
            }
        }
    }

    /// Applies `skip` instead of simulating the periods it covers. The
    /// period that ended at `skip.from` is repeated `M = skip.periods`
    /// times, calm probes copied verbatim. An extrapolation moves each
    /// drifting unknown `i` of `x`, and the predictor's previous point, by
    /// `Δ_i·(r_i + … + r_i^M)`, and every committed charge by the change
    /// its device equation gives between the old and the new `x`. Repeat
    /// `m` of a probe with `r_i = 1` is shifted by `m·Δ_i`; other drifting
    /// probes advance sample by sample, by their change over the period
    /// before times `r_i + … + r_i^m`. The breakpoints the repeats cover
    /// are consumed, and the run resumes at the last repeated boundary, as
    /// its breakpoint holds it.
    fn jump(&mut self, skip: &Skip) {
        let result = &mut self.result;
        let samples = skip.first_sample + 1..result.time.len();
        let (drift, before_sample): (&[Drift], _) = match &skip.kind {
            SkipKind::Copy => (&[], 0),
            SkipKind::Extrapolate {
                drift,
                before_sample,
            } => {
                let from = self.x.clone();
                for d in drift {
                    let moved = d.delta * ratio_sum(d.ratio, skip.periods);
                    self.x[d.unknown] += moved;
                    self.x_prev[d.unknown] += moved;
                }
                self.assembler.advance_charges(&from, &self.x);
                result.extrapolated_periods += skip.periods;
                (drift, *before_sample)
            }
        };
        let copied = samples.len() * skip.periods;
        // A drifting probe's ratio and its change over one period at each
        // repeated sample.
        let drifting: Vec<Option<(f64, Vec<f64>)>> = result
            .nodes
            .iter()
            .zip(&result.data)
            .map(|(node, trace)| {
                let d = drift.iter().find(|d| node.unknown() == Some(d.unknown))?;
                let changes = if d.ratio == 1.0 {
                    vec![d.delta; samples.len()]
                } else {
                    let (before, first) = (before_sample, skip.first_sample);
                    period_changes(&result.time, trace, before, first, skip.period)
                };
                Some((d.ratio, changes))
            })
            .collect();
        result.time.reserve(copied);
        let mut boundary = skip.from;
        for _ in 0..skip.periods {
            boundary += skip.period;
            let shift = boundary - skip.from;
            for k in samples.start..samples.end - 1 {
                let t = result.time[k] + shift;
                result.time.push(t);
            }
            result.time.push(boundary);
        }
        for (trace, drifting) in result.data.iter_mut().zip(drifting) {
            trace.reserve(copied);
            for m in 1..=skip.periods {
                match &drifting {
                    Some((ratio, changes)) => {
                        let sum = ratio_sum(*ratio, m);
                        for (k, change) in samples.clone().zip(changes) {
                            trace.push(trace[k] + change * sum);
                        }
                    }
                    None => trace.extend_from_within(samples.clone()),
                }
            }
        }
        result.replicated_periods += skip.periods;
        result.replicated_samples += copied;
        self.t = boundary;
        while let Some(bp) = self.breakpoints.next_if(|&bp| bp <= boundary + BP_EPS) {
            self.t = bp;
        }
    }

    /// Ends the run: dumps the flight recorder for a failure the stepper
    /// diagnosed itself and rolls the run up into its telemetry summary.
    fn finish(self) -> TranResult {
        let mut result = self.result;
        if let Some(fail) = &result.failure {
            // Deadline and certification failures already dumped the
            // flight recorder at their source (budget tracker / solve
            // certifier).
            let dumped = matches!(
                fail.error,
                Error::DeadlineExceeded { .. } | Error::UntrustedSolution { .. }
            );
            if telemetry::enabled() && !dumped {
                telemetry::record_failure("TranFailure", &fail.summary());
            }
        }
        result.telemetry = TelemetrySummary {
            analyses: 1,
            wall: self.started.elapsed(),
            newton_iterations: result.newton_iterations as u64,
            rung_iterations: self.op_rungs,
            accepted_steps: result.accepted_steps as u64,
            rejected_steps: result.rejected_steps as u64,
            replicated_periods: result.replicated_periods as u64,
            extrapolated_periods: result.extrapolated_periods as u64,
            lu: self.ws.solver.stats().delta_since(&self.lu_before),
            worst_backward_error: Some(result.quality.backward_error),
        };
        telemetry::record_summary(&result.telemetry);
        result
    }
}

/// Runs a transient analysis, failing the whole run on any mid-run error.
///
/// # Errors
///
/// Fails when the initial operating point cannot be found or the step size
/// underflows `h_min` ([`Error::TimestepTooSmall`]). Use
/// [`transient_salvage`] to keep the partial waveform instead.
pub fn transient(circuit: &Circuit, opts: &TranOptions) -> Result<TranResult, Error> {
    let mut ws = SolveWorkspace::for_circuit(circuit);
    transient_with(circuit, opts, &mut ws)
}

/// [`transient`] with a caller-owned [`SolveWorkspace`].
///
/// Sweeps that simulate many variants of the same topology pass one
/// workspace across runs so the cached stamp map and symbolic
/// factorization carry over (falling back automatically whenever the
/// matrix pattern actually changes).
///
/// # Errors
///
/// Same contract as [`transient`].
pub fn transient_with(
    circuit: &Circuit,
    opts: &TranOptions,
    ws: &mut SolveWorkspace,
) -> Result<TranResult, Error> {
    let result = transient_salvage_with(circuit, opts, ws)?;
    match result.failure() {
        Some(fail) => Err(fail.error.clone()),
        None => Ok(result),
    }
}

/// Runs a transient analysis, salvaging the partial waveform on mid-run
/// failure.
///
/// Unlike [`transient`], a run that dies partway through returns
/// `Ok` with everything computed up to the failure point and a
/// [`TranFailure`] diagnostic attached ([`TranResult::failure`]), so a
/// sweep corner that lasts 95% of the interval still contributes data.
///
/// # Errors
///
/// Fails only when the run cannot *start*: invalid options, no DC
/// operating point (the recovery ladder exhausted — see
/// [`Error::DcNoConvergence`]), or a budget already spent before the
/// first timestep. A budget that runs out *mid-run* is salvaged like any
/// other failure: the prefix is kept and the attached [`TranFailure`]
/// carries [`Error::DeadlineExceeded`].
pub fn transient_salvage(circuit: &Circuit, opts: &TranOptions) -> Result<TranResult, Error> {
    let mut ws = SolveWorkspace::for_circuit(circuit);
    transient_salvage_with(circuit, opts, &mut ws)
}

/// [`transient_salvage`] with a caller-owned [`SolveWorkspace`]. While the
/// sources make the run periodic, it steps from one period boundary to the
/// next and lets [`PeriodicSkip`] decide at each whether to skip; then it
/// steps to the end.
fn transient_salvage_with(
    circuit: &Circuit,
    opts: &TranOptions,
    ws: &mut SolveWorkspace,
) -> Result<TranResult, Error> {
    let mut run = Stepper::start(circuit, opts, ws)?;
    if let Some(mut watcher) = PeriodicSkip::new(circuit, opts.t_stop) {
        while let Some(next) = watcher.next_boundary() {
            // A boundary passed without a landing (or never reached) ends
            // the watch rather than compare off-boundary states.
            if !run.run_until(next) {
                break;
            }
            if let Some(skip) = watcher.boundary(&run) {
                run.jump(&skip);
            }
            watcher.remember(&run);
        }
    }
    run.run_until(f64::INFINITY);
    Ok(run.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Netlist, SourceWave};

    #[test]
    fn rc_charge_curve() {
        // R = 1 kΩ, C = 1 nF, step to 1 V: v(t) = 1 - exp(-t/RC).
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWave::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]),
        )
        .unwrap();
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, 1.0e-9).unwrap();
        let c = nl.compile().unwrap();
        let opts = TranOptions::new(5.0e-6).with_dv_max(0.02);
        let res = transient(&c, &opts).unwrap();
        let trace = res.trace(b).unwrap();
        let time = res.time();
        let rc = 1.0e-6;
        for (k, (&t, &v)) in time.iter().zip(trace).enumerate() {
            if t < 5e-12 {
                continue;
            }
            let expected = 1.0 - (-(t - 1e-12) / rc).exp();
            assert!(
                (v - expected).abs() < 5e-3,
                "step {k}: t={t:.3e} v={v:.4} expected {expected:.4}"
            );
        }
        // Final value is 5 time constants in: 1 - e^-5.
        let final_expected = 1.0 - (-5.0f64).exp();
        assert!((trace.last().unwrap() - final_expected).abs() < 5e-3);
    }

    #[test]
    fn rl_current_rise() {
        // V = 1 V, R = 10 Ω, L = 1 µH: node b voltage decays exp(-tR/L).
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWave::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]),
        )
        .unwrap();
        nl.resistor("R1", a, b, 10.0).unwrap();
        nl.inductor("L1", b, Netlist::GROUND, 1.0e-6).unwrap();
        let c = nl.compile().unwrap();
        let opts = TranOptions::new(5.0e-7).with_dv_max(0.02);
        let res = transient(&c, &opts).unwrap();
        let trace = res.trace(b).unwrap();
        let time = res.time();
        let tau = 1.0e-6 / 10.0;
        for (&t, &v) in time.iter().zip(trace) {
            if t < 1e-11 {
                continue;
            }
            let expected = (-(t - 1e-12) / tau).exp();
            assert!(
                (v - expected).abs() < 2e-2,
                "t={t:.3e} v={v:.4} expected {expected:.4}"
            );
        }
    }

    #[test]
    fn sine_through_rc_attenuates() {
        // 1 MHz sine through RC low-pass with corner at 159 kHz: expect
        // roughly 6.3x attenuation and ~81° phase lag; just check the
        // amplitude band.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWave::Sin {
                offset: 0.0,
                amplitude: 1.0,
                freq: 1.0e6,
                delay: 0.0,
            },
        )
        .unwrap();
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, 1.0e-9).unwrap();
        let c = nl.compile().unwrap();
        let res = transient(&c, &TranOptions::new(5.0e-6).with_dv_max(0.03)).unwrap();
        let trace = res.trace(b).unwrap();
        let time = res.time();
        // Look at the last 2 periods only (steady state).
        let amp = time
            .iter()
            .zip(trace)
            .filter(|(&t, _)| t > 3.0e-6)
            .map(|(_, &v)| v.abs())
            .fold(0.0f64, f64::max);
        let expected = 1.0 / (1.0 + (2.0 * std::f64::consts::PI * 1.0e6 * 1.0e-6).powi(2)).sqrt();
        assert!(
            (amp - expected).abs() < 0.15 * expected,
            "amplitude {amp:.4} expected {expected:.4}"
        );
    }

    #[test]
    fn breakpoints_are_hit_exactly() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWave::square(0.0, 1.0, 1.0e8, 0.2),
        )
        .unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
        let c = nl.compile().unwrap();
        let res = transient(&c, &TranOptions::new(2.0e-8)).unwrap();
        // The first rising-edge end is at 1 ns (edge = 0.2·10ns/2).
        let has = |t0: f64| res.time().iter().any(|&t| (t - t0).abs() < 1e-18);
        assert!(has(1.0e-9), "edge corner missing from time axis");
        assert!(has(5.0e-9), "plateau corner missing from time axis");
    }

    #[test]
    fn probe_subset_records_only_requested() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.resistor("R2", b, Netlist::GROUND, 1.0e3).unwrap();
        let c = nl.compile().unwrap();
        let opts = TranOptions::new(1.0e-9).with_probes(vec![b]);
        let res = transient(&c, &opts).unwrap();
        assert!(res.trace(b).is_some());
        assert!(res.trace(a).is_none());
        assert_eq!(res.probed_nodes(), &[b]);
    }

    #[test]
    fn initial_condition_overrides_dc() {
        // RC with source at 1 V but capacitor forced to start at 0.5 V:
        // the trace must begin near 0.5 and relax up to 1 V.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, 1.0e-9).unwrap();
        let c = nl.compile().unwrap();
        let opts = TranOptions::new(5.0e-6).with_initial_voltage(b, 0.5);
        let res = transient(&c, &opts).unwrap();
        let trace = res.trace(b).unwrap();
        assert!((trace[0] - 0.5).abs() < 1e-9, "start {}", trace[0]);
        assert!((trace.last().unwrap() - 1.0).abs() < 5e-3);
        // Monotone rise.
        assert!(trace.windows(2).all(|w| w[1] >= w[0] - 1e-6));
    }

    #[test]
    fn invalid_t_stop_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0).unwrap();
        let c = nl.compile().unwrap();
        assert!(transient(&c, &TranOptions::new(-1.0)).is_err());
        assert!(transient(&c, &TranOptions::new(0.0)).is_err());
    }

    #[test]
    fn options_that_can_only_crawl_are_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, 1.0e-12).unwrap();
        let c = nl.compile().unwrap();
        let base = || {
            let mut opts = TranOptions::new(1.0e-8);
            opts.budget = RunBudget::default().with_max_timesteps(1_000);
            opts
        };
        type Spoil = fn(&mut TranOptions);
        let cases: [(&str, Spoil); 5] = [
            ("t_stop", |o| o.t_stop = f64::INFINITY),
            ("dv_max", |o| o.dv_max = -1.0),
            ("dv_max", |o| o.dv_max = f64::NAN),
            ("h_min", |o| o.h_min = 0.0),
            ("h_min", |o| o.h_min = f64::INFINITY),
        ];
        for (field, spoil) in cases {
            let mut opts = base();
            spoil(&mut opts);
            match transient(&c, &opts) {
                Err(Error::InvalidOptions(reason)) => assert!(reason.contains(field), "{reason}"),
                other => panic!("{field}: expected InvalidOptions, got {other:?}"),
            }
        }
        // The defaults still run.
        assert!(transient(&c, &base()).is_ok());
    }

    /// A 1 kΩ RC low-pass with capacitor `cap`, driven by `wave`; returns
    /// the circuit and the output node.
    fn rc_lowpass(wave: SourceWave, cap: f64) -> (Circuit, NodeId) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, wave).unwrap();
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, cap).unwrap();
        (nl.compile().unwrap(), b)
    }

    /// `wave` as a PWL through its own breakpoints: the same stimulus, but
    /// a PWL source turns the periodic skip off.
    fn as_pwl(wave: &SourceWave, t_stop: f64) -> SourceWave {
        let mut times = vec![0.0];
        wave.breakpoints(t_stop, &mut times);
        times.sort_by(f64::total_cmp);
        times.dedup();
        SourceWave::Pwl(times.into_iter().map(|t| (t, wave.value_at(t))).collect())
    }

    const SQUARE_HZ: f64 = 1.0e8;
    const SQUARE_PERIODS: f64 = 40.0;

    /// The skipped run (pulse source) and its reference (the same stimulus
    /// as PWL) of an RC low-pass with capacitor `cap`, over `periods`
    /// periods.
    fn square_pair(cap: f64, periods: f64) -> (TranResult, TranResult, NodeId, f64) {
        let wave = SourceWave::square(0.0, 1.0, SQUARE_HZ, 0.2);
        let t_stop = periods / SQUARE_HZ;
        let opts = TranOptions::new(t_stop);
        let (pwl, _) = rc_lowpass(as_pwl(&wave, t_stop), cap);
        let (pulse, out) = rc_lowpass(wave, cap);
        let skipped = transient(&pulse, &opts).unwrap();
        let reference = transient(&pwl, &opts).unwrap();
        assert_eq!(reference.replicated_periods(), 0);
        (skipped, reference, out, t_stop)
    }

    /// Checks a skipped run against its reference: every pulse-start
    /// sample within `abstol_v`, a strictly increasing time axis that ends
    /// at `t_stop`, one sample per accepted step or copied sample, and
    /// counters that agree with the telemetry rollup.
    fn assert_skip_matches(res: &TranResult, reference: &TranResult, out: NodeId, t_stop: f64) {
        let abstol_v = DcOptions::default().abstol_v;
        let at = |r: &TranResult, t: f64| {
            let k = r.time().iter().position(|&s| (s - t).abs() <= BP_EPS);
            r.trace(out).unwrap()[k.unwrap_or_else(|| panic!("no sample at {t:e}"))]
        };
        for b in SourceWave::pulse_starts(0.0, 1.0 / SQUARE_HZ, t_stop) {
            let (v, v_ref) = (at(res, b), at(reference, b));
            assert!((v - v_ref).abs() <= abstol_v, "t = {b:e}: {v} vs {v_ref}");
        }
        let time = res.time();
        assert!(
            time.windows(2).all(|w| w[0] < w[1]),
            "time axis not increasing"
        );
        assert_eq!(*time.last().unwrap(), t_stop);
        assert_eq!(
            time.len(),
            res.accepted_steps() + 1 + res.replicated_samples
        );
        assert_eq!(
            res.telemetry().replicated_periods,
            res.replicated_periods() as u64
        );
        assert_eq!(
            res.telemetry().extrapolated_periods,
            res.extrapolated_periods() as u64
        );
    }

    #[test]
    fn settled_periods_are_copied_within_abstol() {
        // τ = 1 ns against a 10 ns period: settled after a few periods. A
        // geometrically decaying response is copied, never extrapolated.
        let (res, reference, out, t_stop) = square_pair(1.0e-12, SQUARE_PERIODS);
        assert!(res.replicated_periods() > 0, "nothing copied");
        assert_eq!(res.extrapolated_periods(), 0);
        assert!(res.accepted_steps() < reference.accepted_steps() / 2);
        assert_skip_matches(&res, &reference, out, t_stop);
    }

    #[test]
    fn drifting_response_is_extrapolated_within_abstol() {
        // τ = 1 ms against a 400 ns run: the output never settles, but it
        // charges by a nearly constant amount every period.
        let (res, reference, out, t_stop) = square_pair(1.0e-6, SQUARE_PERIODS);
        assert!(res.extrapolated_periods() > 0, "nothing extrapolated");
        assert!(
            res.accepted_steps() < reference.accepted_steps() / 4,
            "{} steps against {}",
            res.accepted_steps(),
            reference.accepted_steps()
        );
        assert_skip_matches(&res, &reference, out, t_stop);
    }

    #[test]
    fn decaying_response_is_extrapolated_geometrically() {
        // τ = 50 ns against a 10 ns period: the output approaches its
        // periodic state by a factor of about e^(−1/5) ≈ 0.82 a period, a
        // decay the steady-drift rule refuses to jump. The geometric rule
        // jumps it, and the samples it fills in follow the decay within
        // the period, not only at its boundaries.
        let (res, reference, out, t_stop) = square_pair(50.0e-12, SQUARE_PERIODS);
        assert!(res.extrapolated_periods() > 0, "nothing extrapolated");
        assert!(
            res.accepted_steps() < reference.accepted_steps() / 2,
            "{} steps against {}",
            res.accepted_steps(),
            reference.accepted_steps()
        );
        assert_skip_matches(&res, &reference, out, t_stop);
        let (time, v) = (res.time(), res.trace(out).unwrap());
        let mut k = 0;
        for (&t, &v_ref) in reference.time().iter().zip(reference.trace(out).unwrap()) {
            while time[k + 1] < t {
                k += 1;
            }
            let (t0, t1) = (time[k], time[k + 1]);
            let at = v[k] + (v[k + 1] - v[k]) * (t - t0) / (t1 - t0);
            assert!((at - v_ref).abs() <= 20.0e-6, "t = {t:e}: {at} vs {v_ref}");
        }
    }

    #[test]
    fn extrapolation_stops_short_of_a_clamp() {
        // A 1 mA, 20%-duty pulse current charges 1 nF by about 2 mV per
        // period until the diode to ground clamps the node below 0.9 V,
        // less than half-way into the run. A jump along the early, steady
        // ramp must not carry the node past the clamp (it would end near
        // 2 V): each jump moves the node at most `dv_max`, so the drift is
        // measured again before the diode turns on. The allowance is the
        // FIG8 reference test's; the worst difference reads 8 µV.
        let period = 1.0 / SQUARE_HZ;
        let t_stop = 1000.0 * period;
        let wave = SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0e-3,
            delay: 0.0,
            rise: 0.01 * period,
            fall: 0.01 * period,
            width: 0.19 * period,
            period,
        };
        let clamp = |wave: SourceWave| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.isource("I1", Netlist::GROUND, a, wave).unwrap();
            nl.capacitor("C1", a, Netlist::GROUND, 1.0e-9).unwrap();
            nl.diode("D1", a, Netlist::GROUND, crate::devices::DiodeModel::new())
                .unwrap();
            let c = nl.compile().unwrap();
            (transient(&c, &TranOptions::new(t_stop)).unwrap(), a)
        };
        let (reference, _) = clamp(as_pwl(&wave, t_stop));
        let (res, out) = clamp(wave);
        assert!(res.extrapolated_periods() > 0, "nothing extrapolated");
        let v_ref = reference.trace(out).unwrap();
        let peak = v_ref.iter().fold(0.0f64, |a, &v| a.max(v));
        assert!(peak < 1.0, "the diode did not clamp: {peak} V");
        let v = res.trace(out).unwrap();
        let mut k = 0;
        for (&t, &v_ref) in reference.time().iter().zip(v_ref) {
            while res.time()[k + 1] < t {
                k += 1;
            }
            let (t0, t1) = (res.time()[k], res.time()[k + 1]);
            let at = v[k] + (v[k + 1] - v[k]) * (t - t0) / (t1 - t0);
            assert!((at - v_ref).abs() <= 50.0e-6, "t = {t:e}: {at} vs {v_ref}");
        }
    }

    #[test]
    fn mixed_periods_and_sine_are_never_skipped() {
        // Three boundaries, watched but too few to skip: the run equals
        // its PWL twin sample for sample.
        let (res, reference, out, _) = square_pair(1.0e-6, 3.0);
        assert_eq!(res.replicated_periods(), 0);
        assert_eq!(res.time(), reference.time());
        let (v, v_ref) = (res.trace(out).unwrap(), reference.trace(out).unwrap());
        assert!(v.iter().zip(v_ref).all(|(a, b)| (a - b).abs() <= 1.0e-12));

        let t_stop = SQUARE_PERIODS / SQUARE_HZ;
        let sine = SourceWave::Sin {
            offset: 0.0,
            amplitude: 1.0,
            freq: SQUARE_HZ,
            delay: 0.0,
        };
        let (c, _) = rc_lowpass(sine, 1.0e-12);
        let res = transient(&c, &TranOptions::new(t_stop)).unwrap();
        assert_eq!(res.replicated_periods(), 0);

        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let out = nl.node("out");
        let fast = SourceWave::square(0.0, 1.0, SQUARE_HZ, 0.2);
        let slow = SourceWave::square(0.0, 1.0, SQUARE_HZ / 2.0, 0.2);
        nl.vsource("V1", a, Netlist::GROUND, fast).unwrap();
        nl.vsource("V2", b, Netlist::GROUND, slow).unwrap();
        nl.resistor("R1", a, out, 1.0e3).unwrap();
        nl.resistor("R2", b, out, 1.0e3).unwrap();
        nl.capacitor("C1", out, Netlist::GROUND, 1.0e-12).unwrap();
        let res = transient(&nl.compile().unwrap(), &TranOptions::new(t_stop)).unwrap();
        assert_eq!(res.replicated_periods(), 0);
        assert_eq!(res.time().len(), res.accepted_steps() + 1);
    }

    #[test]
    fn a_run_stopped_and_resumed_steps_as_one_run() {
        // A PWL-driven RC, so the period watcher is off, stopped at every
        // breakpoint, at a time that is none, and then run to the end: the
        // stops must change no step.
        let t_stop = 2.0e-8;
        let pwl = vec![(0.0, 0.0), (1.0e-9, 1.0), (4.0e-9, 1.0), (4.5e-9, 0.2)];
        let (c, _) = rc_lowpass(SourceWave::Pwl(pwl), 1.0e-12);
        let opts = TranOptions::new(t_stop);
        let whole = transient(&c, &opts).unwrap();
        let mut ws = SolveWorkspace::for_circuit(&c);
        let mut run = Stepper::start(&c, &opts, &mut ws).unwrap();
        let mut stops = Vec::new();
        for wave in source_waves(&c) {
            wave.breakpoints(t_stop, &mut stops);
        }
        assert!(stops.len() >= 3, "{stops:?}");
        for &bp in &stops {
            assert!(run.run_until(bp), "no landing on {bp:e}");
            assert_eq!(run.t, bp);
        }
        let between = 1.0e-8;
        assert!(!run.run_until(between));
        assert!(run.t >= between && run.t < t_stop);
        run.run_until(t_stop);
        let pieces = run.finish();
        assert!(pieces.is_complete());
        assert_eq!(pieces, whole);
        let bits = |r: &TranResult| r.time().iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pieces), bits(&whole));
    }

    #[test]
    fn salvage_on_complete_run_has_no_failure() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, 1.0e-9).unwrap();
        let c = nl.compile().unwrap();
        let res = transient_salvage(&c, &TranOptions::new(1.0e-7)).unwrap();
        assert!(res.is_complete());
        assert!(res.failure().is_none());
        let strict = transient(&c, &TranOptions::new(1.0e-7)).unwrap();
        assert_eq!(strict, res);
    }

    #[test]
    fn salvage_keeps_partial_waveform_on_midrun_failure() {
        // A diode hit by a fast edge, with Newton starved to 2 iterations:
        // the DC point at t = 0 (source at 0 V) still converges, but the
        // nonlinear steps on the edge cannot, and every backoff fails the
        // same way until h underflows. The salvaged result must keep the
        // pre-edge samples and carry the diagnostic.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let d = nl.node("d");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWave::Pwl(vec![(0.0, 0.0), (5.0e-9, 0.0), (5.1e-9, 5.0)]),
        )
        .unwrap();
        nl.resistor("R1", a, d, 100.0).unwrap();
        nl.diode("D1", d, Netlist::GROUND, crate::devices::DiodeModel::new())
            .unwrap();
        let c = nl.compile().unwrap();
        let mut opts = TranOptions::new(2.0e-8);
        opts.dc.max_iterations = 2;
        opts.h_min = 1.0e-12;
        let res = transient_salvage(&c, &opts).expect("starts fine: source is 0 at t = 0");
        let fail = res.failure().expect("starved Newton must die on the edge");
        assert!(!res.is_complete());
        assert!(fail.time >= 0.0 && fail.time < 2.0e-8);
        assert!((0.0..1.0).contains(&fail.progress));
        assert!(fail.summary().contains("died at"));
        assert_eq!(res.time().len(), res.accepted_steps() + 1);
        assert!(res.accepted_steps() > 0, "pre-edge samples were discarded");
        // Strict wrapper refuses the same run with the same error.
        assert_eq!(transient(&c, &opts).unwrap_err(), fail.error);
    }

    #[test]
    fn be_retry_rescues_trap_failures() {
        // Same starved-Newton edge, but with a budget where backward Euler
        // (no trap ringing) converges while trapezoidal needs more: the
        // run should complete, with rejections recorded for the retries.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let d = nl.node("d");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWave::Pwl(vec![(0.0, 0.0), (5.0e-9, 0.0), (6.0e-9, 2.0)]),
        )
        .unwrap();
        nl.resistor("R1", a, d, 1.0e3).unwrap();
        nl.capacitor("CD", d, Netlist::GROUND, 1.0e-12).unwrap();
        nl.diode("D1", d, Netlist::GROUND, crate::devices::DiodeModel::new())
            .unwrap();
        let c = nl.compile().unwrap();
        let res = transient_salvage(&c, &TranOptions::new(2.0e-8)).unwrap();
        assert!(res.is_complete(), "{:?}", res.failure());
    }

    #[test]
    fn step_counters_are_populated() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWave::square(0.0, 1.0, 1.0e8, 0.2),
        )
        .unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
        let c = nl.compile().unwrap();
        let res = transient(&c, &TranOptions::new(1.0e-8)).unwrap();
        assert!(res.accepted_steps() > 10);
        assert!(res.newton_iterations() >= res.accepted_steps());
        assert_eq!(res.time().len(), res.accepted_steps() + 1);
    }
}
