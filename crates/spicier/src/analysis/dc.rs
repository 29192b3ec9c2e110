//! DC operating point and DC sweeps.
//!
//! The solver escalates through a **recovery ladder**: plain
//! Newton–Raphson, damped Newton, `gmin` stepping (a conductance
//! homotopy), source stepping, and finally pseudo-transient continuation
//! (backward-Euler pseudo-timestepping toward steady state). Every rung
//! attempt is recorded in a [`ConvergenceReport`] attached to the
//! [`DcSolution`] — and embedded in [`Error::DcNoConvergence`] when the
//! whole ladder fails — so sweeps and experiments can report *how* a
//! corner converged or why it did not, instead of dying on it.

use super::budget::{BudgetTracker, Phase, RunBudget};
use super::mna::{Assembler, EvalMode, SolveWorkspace};
use super::preflight;
use crate::chaos;
use crate::error::Error;
use crate::linalg::{LuStats, SolveQuality, Solver};
use crate::netlist::{Circuit, NodeId};
use crate::telemetry::{self, TelemetrySummary};
use std::fmt;
use std::time::{Duration, Instant};

/// One rung of the DC convergence recovery ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryRung {
    /// Plain Newton–Raphson from a zero start.
    Newton,
    /// Newton with a damped update (half steps), for overshooting loops.
    DampedNewton,
    /// Conductance homotopy: converge under a heavy `gmin` blanket, then
    /// relax it decade by decade.
    GminStepping,
    /// Independent sources ramped from 10% to 100% with adaptive steps.
    SourceStepping,
    /// Pseudo-transient continuation: backward-Euler pseudo-timestepping
    /// with a per-node conductance that anneals away, following the
    /// circuit's own dynamics to steady state.
    PseudoTransient,
}

impl RecoveryRung {
    /// Short label used in reports and log lines.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryRung::Newton => "newton",
            RecoveryRung::DampedNewton => "damped-newton",
            RecoveryRung::GminStepping => "gmin-stepping",
            RecoveryRung::SourceStepping => "source-stepping",
            RecoveryRung::PseudoTransient => "pseudo-transient",
        }
    }
}

impl fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of one ladder rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungAttempt {
    /// Which rung ran.
    pub rung: RecoveryRung,
    /// Newton iterations spent in this rung (summed over homotopy steps).
    pub iterations: usize,
    /// Whether the rung produced a converged operating point.
    pub converged: bool,
    /// Worst unknown-change magnitude at the rung's final iterate.
    pub worst_residual: f64,
}

/// Structured account of how an operating point was (or was not) found.
#[derive(Debug, Clone, PartialEq, Default)]
#[must_use]
pub struct ConvergenceReport {
    /// Every rung attempted, in order.
    pub attempts: Vec<RungAttempt>,
    /// The rung that produced the solution, `None` when all failed.
    pub succeeded: Option<RecoveryRung>,
    /// Index of the unknown with the worst final residual (a node voltage
    /// when `< n_nodes`, otherwise a branch current); `None` when no
    /// iteration ran at all.
    pub worst_unknown: Option<usize>,
    /// Worst unknown-change magnitude at the last iterate of the last
    /// attempted rung.
    pub worst_residual: f64,
    /// Structural pre-flight findings on the assembled pattern (floating
    /// nodes, empty rows/columns, scaling warnings), recorded before the
    /// first factorization. Diagnostics only: the ladder's gmin rungs cure
    /// a DC-floating node, so a finding here does not imply failure — use
    /// [`assert_preflight`](super::preflight::assert_preflight) to reject
    /// such circuits up front instead.
    pub preflight: Vec<String>,
}

impl ConvergenceReport {
    /// Total Newton iterations across every rung.
    #[must_use]
    pub fn total_iterations(&self) -> usize {
        self.attempts.iter().map(|a| a.iterations).sum()
    }

    /// Whether the solution needed anything beyond plain Newton.
    #[must_use]
    pub fn escalated(&self) -> bool {
        !matches!(self.succeeded, Some(RecoveryRung::Newton))
    }

    /// Newton iterations per rung, in ladder order, labelled as
    /// [`TelemetrySummary::rung_iterations`] labels them.
    #[must_use]
    pub fn rung_iterations(&self) -> Vec<(String, u64)> {
        self.attempts
            .iter()
            .map(|a| (a.rung.label().to_string(), a.iterations as u64))
            .collect()
    }

    /// Name of the worst-residual node in `circuit`, when it is a node
    /// voltage (branch-current unknowns return `None`).
    #[must_use]
    pub fn worst_node_name<'c>(&self, circuit: &'c Circuit) -> Option<&'c str> {
        let idx = self.worst_unknown?;
        circuit
            .node_ids()
            .find(|id| id.unknown() == Some(idx))
            .map(|id| circuit.netlist().node_name(id))
    }

    /// One-line human-readable summary, e.g.
    /// `"converged via gmin-stepping (3 rungs, 204 iterations)"`.
    #[must_use]
    pub fn summary(&self) -> String {
        match self.succeeded {
            Some(rung) => format!(
                "converged via {} ({} rung{}, {} iterations)",
                rung.label(),
                self.attempts.len(),
                if self.attempts.len() == 1 { "" } else { "s" },
                self.total_iterations()
            ),
            None => format!(
                "no convergence after {} rungs ({} iterations, worst residual {:.3e})",
                self.attempts.len(),
                self.total_iterations(),
                self.worst_residual
            ),
        }
    }

    fn record(&mut self, rung: RecoveryRung, run: &NewtonRun) {
        self.attempts.push(RungAttempt {
            rung,
            iterations: run.iterations,
            converged: run.converged,
            worst_residual: run.worst_delta,
        });
        self.worst_residual = run.worst_delta;
        if run.iterations > 0 {
            self.worst_unknown = Some(run.worst_index);
        }
        if run.converged {
            self.succeeded = Some(rung);
        }
    }
}

/// Options for the DC operating-point solver.
#[derive(Debug, Clone, PartialEq)]
pub struct DcOptions {
    /// Maximum Newton iterations per attempt.
    pub max_iterations: usize,
    /// Absolute node-voltage convergence tolerance, volts.
    pub abstol_v: f64,
    /// Absolute branch-current convergence tolerance, amperes.
    pub abstol_i: f64,
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Final gmin left in the circuit, siemens.
    pub gmin: f64,
    /// Iteration caps for the analysis call this options struct drives.
    /// Unlimited by default; deadlines and cancels arrive through the
    /// corner token instead.
    pub budget: RunBudget,
}

impl Default for DcOptions {
    fn default() -> Self {
        Self {
            max_iterations: 150,
            abstol_v: 1.0e-6,
            abstol_i: 1.0e-9,
            reltol: 1.0e-3,
            gmin: 1.0e-12,
            budget: RunBudget::default(),
        }
    }
}

/// A converged DC solution.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    n_nodes: usize,
    x: Vec<f64>,
    report: ConvergenceReport,
    quality: SolveQuality,
    telemetry: TelemetrySummary,
}

impl DcSolution {
    /// How the solution was found: which recovery rung succeeded, and at
    /// what iteration cost.
    pub fn report(&self) -> &ConvergenceReport {
        &self.report
    }

    /// Telemetry rollup for this solve: wall time, Newton totals per
    /// ladder rung, kernel counters, worst backward error.
    pub fn telemetry(&self) -> &TelemetrySummary {
        &self.telemetry
    }

    /// Certification record of the final (converged) linear solve:
    /// backward error, refinement steps, condition estimate when one was
    /// computed.
    pub fn quality(&self) -> SolveQuality {
        self.quality
    }

    /// Voltage of `node`, volts.
    pub fn voltage(&self, node: NodeId) -> f64 {
        match node.unknown() {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// Branch current of the `k`-th branch element (voltage sources and
    /// inductors in netlist order), amperes.
    pub fn branch_current(&self, k: usize) -> f64 {
        self.x[self.n_nodes + k]
    }

    /// The raw unknown vector (node voltages then branch currents).
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }

    /// Consumes the solution, returning the unknown vector.
    pub fn into_unknowns(self) -> Vec<f64> {
        self.x
    }
}

/// Diagnostics from one Newton attempt (converged or not).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewtonRun {
    /// Iterations spent.
    pub iterations: usize,
    /// Worst unknown-change magnitude at the final iterate.
    pub worst_delta: f64,
    /// Index of the worst unknown at the final iterate.
    pub worst_index: usize,
    /// Whether the attempt converged.
    pub converged: bool,
}

impl NewtonRun {
    fn fresh() -> Self {
        Self {
            iterations: 0,
            worst_delta: f64::INFINITY,
            worst_index: 0,
            converged: false,
        }
    }
}

/// Pseudo-transient term added to the assembled system: a conductance `g`
/// from every node to its value in `anchor` (backward Euler on a unit
/// capacitance with `h = C/g`).
struct PtranTerm<'a> {
    g: f64,
    anchor: &'a [f64],
}

/// Runs one Newton–Raphson attempt from `x`, in place.
///
/// `damping` scales the update (`1.0` = full Newton). `ptran` optionally
/// adds pseudo-transient continuation terms. Returns full diagnostics;
/// solver failures (singular matrix) and a spent budget surface as `Err`.
#[allow(clippy::too_many_arguments)]
fn newton_run(
    assembler: &mut Assembler<'_>,
    mode: &EvalMode,
    x: &mut [f64],
    opts: &DcOptions,
    ws: &mut SolveWorkspace,
    tracker: &mut BudgetTracker,
    damping: f64,
    ptran: Option<&PtranTerm<'_>>,
) -> Result<NewtonRun, Error> {
    let n_nodes = assembler.circuit().node_unknowns();
    let mut run = NewtonRun::fresh();
    let hang = chaos::hang_active();
    let nan_stamp = chaos::nan_stamp_active();
    for iter in 0..opts.max_iterations {
        tracker.check()?;
        let SolveWorkspace {
            solver,
            triplets,
            rhs,
        } = ws;
        assembler.assemble_with_ptran(x, mode, ptran.map(|pt| pt.g), triplets, rhs);
        if let Some(pt) = ptran {
            for (i, r) in rhs.iter_mut().enumerate().take(n_nodes) {
                *r += pt.g * pt.anchor[i];
            }
        }
        if nan_stamp {
            if let Some(r) = rhs.first_mut() {
                *r = f64::NAN;
            }
        }
        solver.solve_in_place(triplets, rhs)?;
        run.iterations = iter + 1;
        tracker.count_newton(1);
        if hang {
            chaos::hang_beat();
        }
        // A non-finite iterate can never converge — and would otherwise be
        // *accepted*, because `NaN > tol` is false below. Fail the attempt
        // immediately and let the ladder (or the caller) handle it.
        if let Some(bad) = rhs.iter().position(|v| !v.is_finite()) {
            run.worst_delta = f64::INFINITY;
            run.worst_index = bad;
            if telemetry::enabled() {
                telemetry::event(
                    "newton_nonfinite",
                    &[("iter", run.iterations.into()), ("unknown", bad.into())],
                );
            }
            return Ok(run);
        }
        let mut converged = true;
        run.worst_delta = 0.0;
        for (i, (&new, old)) in rhs.iter().zip(x.iter()).enumerate() {
            let abstol = if i < n_nodes {
                opts.abstol_v
            } else {
                opts.abstol_i
            };
            let tol = abstol + opts.reltol * new.abs().max(old.abs());
            let delta = (new - old).abs();
            if delta > tol {
                converged = false;
            }
            if delta > run.worst_delta {
                run.worst_delta = delta;
                run.worst_index = i;
            }
        }
        // Residual trajectory: one event per Newton iteration, so the
        // flight recorder shows *how* a rung was converging (or not)
        // when something downstream failed.
        if telemetry::enabled() {
            telemetry::event(
                "newton_iter",
                &[
                    ("iter", run.iterations.into()),
                    ("max_delta", run.worst_delta.into()),
                    ("worst_unknown", run.worst_index.into()),
                    ("converged", converged.into()),
                ],
            );
        }
        if damping >= 1.0 {
            x.copy_from_slice(rhs);
        } else {
            for (xi, &new) in x.iter_mut().zip(rhs.iter()) {
                *xi += damping * (new - *xi);
            }
        }
        if converged && !hang && !assembler.was_limited() && iter > 0 {
            run.converged = true;
            return Ok(run);
        }
    }
    Ok(run)
}

/// Runs one plain Newton–Raphson attempt from `x`, in place.
///
/// Returns the number of iterations used; kept as the simple entry point
/// the transient engine and DC sweeps use.
pub(crate) fn newton(
    assembler: &mut Assembler<'_>,
    mode: &EvalMode,
    x: &mut [f64],
    opts: &DcOptions,
    ws: &mut SolveWorkspace,
    tracker: &mut BudgetTracker,
) -> Result<usize, Error> {
    let run = newton_run(assembler, mode, x, opts, ws, tracker, 1.0, None)?;
    if run.converged {
        Ok(run.iterations)
    } else {
        Err(Error::DcNoConvergence {
            iterations: run.iterations,
            residual: run.worst_delta,
            report: None,
        })
    }
}

/// Computes the DC operating point of `circuit`.
///
/// Escalates through the full recovery ladder (see the module docs); the
/// returned [`DcSolution`] carries a [`ConvergenceReport`] describing which
/// rung succeeded and at what cost.
///
/// # Errors
///
/// Returns [`Error::DcNoConvergence`] — with the full report embedded —
/// when every rung of the ladder fails, [`Error::SingularMatrix`] for
/// structurally broken circuits on which no Newton iteration completes,
/// or [`Error::DeadlineExceeded`] when `opts.budget` or the corner token
/// stops it first.
pub fn operating_point(circuit: &Circuit, opts: &DcOptions) -> Result<DcSolution, Error> {
    let started = Instant::now();
    let mut assembler = Assembler::new(circuit);
    let mut ws = SolveWorkspace::for_circuit(circuit);
    let mut tracker = BudgetTracker::new(&opts.budget, Phase::DcOperatingPoint);
    let (x, report) =
        recover_operating_point(circuit, opts, &mut assembler, &mut ws, &mut tracker)?;
    let quality = ws.solver.last_quality();
    let telemetry = dc_summary(started.elapsed(), &report, ws.solver.stats(), quality);
    telemetry::record_summary(&telemetry);
    Ok(DcSolution {
        n_nodes: circuit.node_unknowns(),
        x,
        report,
        quality,
        telemetry,
    })
}

/// Builds the per-solve telemetry rollup from the diagnostics the DC
/// path already tracks (report, kernel counters, certification record).
fn dc_summary(
    wall: Duration,
    report: &ConvergenceReport,
    lu: LuStats,
    quality: SolveQuality,
) -> TelemetrySummary {
    TelemetrySummary {
        analyses: 1,
        wall,
        newton_iterations: report.total_iterations() as u64,
        rung_iterations: report.rung_iterations(),
        lu,
        worst_backward_error: Some(quality.backward_error),
        ..TelemetrySummary::default()
    }
}

/// One rung of the recovery ladder: attempts a full solve, returning the
/// candidate solution and the aggregated Newton diagnostics.
type RungFn = fn(
    &Circuit,
    &DcOptions,
    &mut Assembler<'_>,
    &mut SolveWorkspace,
    &mut BudgetTracker,
) -> Result<(Vec<f64>, NewtonRun), Error>;

/// The recovery ladder itself: runs each rung in order, recording every
/// attempt, and returns the first converged solution with its report.
pub(crate) fn recover_operating_point(
    circuit: &Circuit,
    opts: &DcOptions,
    assembler: &mut Assembler<'_>,
    ws: &mut SolveWorkspace,
    tracker: &mut BudgetTracker,
) -> Result<(Vec<f64>, ConvergenceReport), Error> {
    // Structural pre-flight: scan the assembled pattern once, before the
    // first factorization, and attach the findings (named nodes, not
    // kernel column indices) as diagnostics. Not fatal here — the gmin
    // rungs cure DC-floating nodes.
    let mut report = ConvergenceReport {
        preflight: preflight::preflight(circuit).messages(),
        ..ConvergenceReport::default()
    };
    // The most recent structural (solver) failure; returned instead of
    // `DcNoConvergence` when no rung completed a single iteration, because
    // a singular matrix — not divergence — is then the root cause.
    let mut structural: Option<Error> = None;

    let rungs: [RungFn; 5] = [
        rung_newton,
        rung_damped_newton,
        rung_gmin_stepping,
        rung_source_stepping,
        rung_pseudo_transient,
    ];
    let labels = [
        RecoveryRung::Newton,
        RecoveryRung::DampedNewton,
        RecoveryRung::GminStepping,
        RecoveryRung::SourceStepping,
        RecoveryRung::PseudoTransient,
    ];

    for (i, (rung, label)) in rungs.iter().zip(labels).enumerate() {
        if tracker.phase() == Phase::DcOperatingPoint {
            tracker.set_progress(i as f64 / rungs.len() as f64);
        }
        let _rung_span = telemetry::span(label.label());
        match rung(circuit, opts, assembler, ws, tracker) {
            Ok((x, run)) => {
                report.record(label, &run);
                if run.converged {
                    return Ok((x, report));
                }
                if telemetry::enabled() {
                    telemetry::event(
                        "rung_failed",
                        &[
                            ("rung", label.label().into()),
                            ("iterations", run.iterations.into()),
                            ("worst_residual", run.worst_delta.into()),
                            ("worst_unknown", run.worst_index.into()),
                        ],
                    );
                }
            }
            // A spent budget or a failed certification is non-retriable:
            // climbing further rungs would burn wall clock the caller no
            // longer has, or reproduce the same untrusted numbers.
            Err(err) if err.is_non_retriable() => return Err(err),
            Err(err) => {
                // Structural failure inside this rung: record a
                // zero-iteration attempt and keep climbing — a homotopy
                // higher up may still regularise the matrix.
                report.record(label, &NewtonRun::fresh());
                structural = Some(err);
            }
        }
    }

    if report.total_iterations() == 0 {
        if let Some(err) = structural {
            if telemetry::enabled() {
                telemetry::record_failure("SolverFailure", &err.to_string());
            }
            return Err(err);
        }
    }
    let residual = report.worst_residual;
    let iterations = report.total_iterations();
    if telemetry::enabled() {
        // The ladder is exhausted: ship the buffered trajectory. The
        // rung_failed events above identify which rung gave up where.
        telemetry::record_failure("DcNoConvergence", &report.summary());
    }
    Err(Error::DcNoConvergence {
        iterations,
        residual,
        report: Some(Box::new(report)),
    })
}

/// Rung 1: plain Newton from a zero start.
fn rung_newton(
    circuit: &Circuit,
    opts: &DcOptions,
    assembler: &mut Assembler<'_>,
    ws: &mut SolveWorkspace,
    tracker: &mut BudgetTracker,
) -> Result<(Vec<f64>, NewtonRun), Error> {
    let mut x = vec![0.0; circuit.dim()];
    assembler.reset_junctions(&x);
    let run = newton_run(
        assembler,
        &EvalMode::dc(opts.gmin),
        &mut x,
        opts,
        ws,
        tracker,
        1.0,
        None,
    )?;
    Ok((x, run))
}

/// Rung 2: damped Newton (half steps) from a zero start — rescues loops
/// where full steps overshoot and oscillate.
fn rung_damped_newton(
    circuit: &Circuit,
    opts: &DcOptions,
    assembler: &mut Assembler<'_>,
    ws: &mut SolveWorkspace,
    tracker: &mut BudgetTracker,
) -> Result<(Vec<f64>, NewtonRun), Error> {
    let mut x = vec![0.0; circuit.dim()];
    assembler.reset_junctions(&x);
    // Damping halves the contraction rate, so allow more iterations.
    let opts = DcOptions {
        max_iterations: opts.max_iterations * 2,
        ..opts.clone()
    };
    let run = newton_run(
        assembler,
        &EvalMode::dc(opts.gmin),
        &mut x,
        &opts,
        ws,
        tracker,
        0.5,
        None,
    )?;
    Ok((x, run))
}

/// Rung 3: gmin stepping — converge with a heavy conductance blanket,
/// then relax it decade by decade.
fn rung_gmin_stepping(
    circuit: &Circuit,
    opts: &DcOptions,
    assembler: &mut Assembler<'_>,
    ws: &mut SolveWorkspace,
    tracker: &mut BudgetTracker,
) -> Result<(Vec<f64>, NewtonRun), Error> {
    let mut x = vec![0.0; circuit.dim()];
    assembler.reset_junctions(&x);
    let mut gmin = 1.0e-2;
    let mut total = NewtonRun::fresh();
    loop {
        let mode = EvalMode::dc(gmin);
        let run = newton_run(assembler, &mode, &mut x, opts, ws, tracker, 1.0, None)?;
        total.iterations += run.iterations;
        total.worst_delta = run.worst_delta;
        total.worst_index = run.worst_index;
        if !run.converged {
            return Ok((x, total));
        }
        if gmin <= opts.gmin {
            total.converged = true;
            return Ok((x, total));
        }
        gmin = (gmin / 10.0).max(opts.gmin);
    }
}

/// Rung 4: source stepping — ramp independent sources from 10% to 100%
/// with an adaptive step.
fn rung_source_stepping(
    circuit: &Circuit,
    opts: &DcOptions,
    assembler: &mut Assembler<'_>,
    ws: &mut SolveWorkspace,
    tracker: &mut BudgetTracker,
) -> Result<(Vec<f64>, NewtonRun), Error> {
    let mut x = vec![0.0; circuit.dim()];
    assembler.reset_junctions(&x);
    let mut total = NewtonRun::fresh();
    let mut scale = 0.1;
    let mut step = 0.1;
    while scale <= 1.0 + 1e-12 {
        let mode = EvalMode {
            source_scale: scale,
            ..EvalMode::dc(opts.gmin)
        };
        let mut attempt = x.clone();
        let run = newton_run(assembler, &mode, &mut attempt, opts, ws, tracker, 1.0, None)?;
        total.iterations += run.iterations;
        total.worst_delta = run.worst_delta;
        total.worst_index = run.worst_index;
        if run.converged {
            x = attempt;
            if (scale - 1.0).abs() < 1e-12 {
                total.converged = true;
                return Ok((x, total));
            }
            scale = (scale + step).min(1.0);
        } else {
            step /= 2.0;
            if step < 1.0e-3 {
                return Ok((x, total));
            }
            scale = (scale - step).max(step);
        }
    }
    Ok((x, total))
}

/// Rung 5: pseudo-transient continuation. Adds a conductance `g` from
/// every node to the last accepted iterate (backward Euler on a unit
/// capacitance, pseudo-timestep `h = C/g`), which regularises the Jacobian
/// and follows the circuit's own dynamics toward steady state. `g` anneals
/// away on success and backs off on failure; a plain Newton polish
/// confirms the final point is a true equilibrium.
fn rung_pseudo_transient(
    circuit: &Circuit,
    opts: &DcOptions,
    assembler: &mut Assembler<'_>,
    ws: &mut SolveWorkspace,
    tracker: &mut BudgetTracker,
) -> Result<(Vec<f64>, NewtonRun), Error> {
    const G_START: f64 = 1.0;
    const G_FLOOR: f64 = 1.0e-10;
    const G_CEIL: f64 = 1.0e9;
    const ANNEAL: f64 = 3.0;
    const BACKOFF: f64 = 8.0;
    const MAX_PSEUDO_STEPS: usize = 120;

    let dim = circuit.dim();
    let mut x = vec![0.0; dim];
    assembler.reset_junctions(&x);
    let mut anchor = x.clone();
    let mut g = G_START;
    let mut total = NewtonRun::fresh();
    let mode = EvalMode::dc(opts.gmin);

    for _ in 0..MAX_PSEUDO_STEPS {
        let term = PtranTerm { g, anchor: &anchor };
        let run = newton_run(
            assembler,
            &mode,
            &mut x,
            opts,
            ws,
            tracker,
            1.0,
            Some(&term),
        )?;
        total.iterations += run.iterations;
        total.worst_delta = run.worst_delta;
        total.worst_index = run.worst_index;
        if run.converged {
            anchor.copy_from_slice(&x);
            if g <= G_FLOOR {
                break;
            }
            g /= ANNEAL;
        } else {
            // Pseudo-step too aggressive: rewind and stiffen the anchor.
            x.copy_from_slice(&anchor);
            assembler.reset_junctions(&x);
            g *= BACKOFF;
            if g > G_CEIL {
                return Ok((x, total));
            }
        }
    }

    // Polish: the anchored term is tiny but nonzero; confirm the point is
    // an equilibrium of the unmodified equations.
    let polish = newton_run(assembler, &mode, &mut x, opts, ws, tracker, 1.0, None)?;
    total.iterations += polish.iterations;
    total.worst_delta = polish.worst_delta;
    total.worst_index = polish.worst_index;
    total.converged = polish.converged;
    Ok((x, total))
}

/// Sweeps the value of a DC voltage source and records the operating point
/// at each setting, using the previous solution as the next starting guess
/// (continuation) — this is what the hysteresis experiment of the paper's
/// Figure 12 needs, because the comparator's state depends on the sweep
/// direction.
///
/// # Errors
///
/// Fails if any point fails to converge, or with
/// [`Error::DeadlineExceeded`] when `opts.budget` or the corner token
/// stops it mid-sweep (the error's `progress` records the fraction of
/// points completed).
pub fn sweep_vsource(
    circuit: &Circuit,
    source: &str,
    values: &[f64],
    opts: &DcOptions,
) -> Result<Vec<DcSolution>, Error> {
    // Verify the element exists and is a voltage source up front.
    match circuit.netlist().element(source)? {
        crate::netlist::Element::VoltageSource { .. } => {}
        other => {
            return Err(Error::InvalidValue {
                element: source.to_string(),
                reason: format!("expected a voltage source, found {}", other.type_tag()),
            })
        }
    }
    let mut results = Vec::with_capacity(values.len());
    let mut previous: Option<Vec<f64>> = None;
    // One workspace across the sweep: consecutive points share the same
    // matrix pattern, so every solve after the first reuses the cached
    // stamp map and symbolic factorization.
    let mut ws = SolveWorkspace::new(circuit.dim());
    let mut tracker = BudgetTracker::new(&opts.budget, Phase::DcSweep);
    for (k, &v) in values.iter().enumerate() {
        let point_started = Instant::now();
        let lu_before = ws.solver.stats();
        tracker.set_progress(k as f64 / values.len() as f64);
        tracker.check()?;
        // Rebuild the netlist with the new source value.
        let mut nl = circuit.netlist().clone();
        let (p, n) = match nl.element(source)? {
            crate::netlist::Element::VoltageSource { p, n, .. } => (*p, *n),
            _ => unreachable!("validated above"),
        };
        nl.remove_element(source)?;
        nl.vdc(source, p, n, v)?;
        let swept = nl.compile()?;
        let mut assembler = Assembler::new(&swept);
        let (x, report) = match &previous {
            Some(prev) => {
                // Continuation: start Newton from the previous solution.
                let mut x = prev.clone();
                assembler.reset_junctions(&x);
                match newton(
                    &mut assembler,
                    &EvalMode::dc(opts.gmin),
                    &mut x,
                    opts,
                    &mut ws,
                    &mut tracker,
                ) {
                    Ok(iterations) => {
                        let mut report = ConvergenceReport::default();
                        report.record(
                            RecoveryRung::Newton,
                            &NewtonRun {
                                iterations,
                                worst_delta: 0.0,
                                worst_index: 0,
                                converged: true,
                            },
                        );
                        (x, report)
                    }
                    // A spent budget or a failed certification is
                    // non-retriable; anything else falls back to the full
                    // recovery ladder.
                    Err(err) if err.is_non_retriable() => return Err(err),
                    Err(_) => recover_operating_point(
                        &swept,
                        opts,
                        &mut assembler,
                        &mut ws,
                        &mut tracker,
                    )?,
                }
            }
            None => recover_operating_point(&swept, opts, &mut assembler, &mut ws, &mut tracker)?,
        };
        previous = Some(x.clone());
        let quality = ws.solver.last_quality();
        // Per-point delta on the shared workspace, so each solution's
        // rollup only counts its own factorizations and solves.
        let telemetry = dc_summary(
            point_started.elapsed(),
            &report,
            ws.solver.stats().delta_since(&lu_before),
            quality,
        );
        telemetry::record_summary(&telemetry);
        results.push(DcSolution {
            n_nodes: swept.node_unknowns(),
            x,
            report,
            quality,
            telemetry,
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{BjtModel, DiodeModel};
    use crate::netlist::Netlist;

    #[test]
    fn divider() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.vdc("V1", vin, Netlist::GROUND, 3.3).unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.resistor("R2", out, Netlist::GROUND, 2.0e3).unwrap();
        let c = nl.compile().unwrap();
        let op = operating_point(&c, &DcOptions::default()).unwrap();
        assert!((op.voltage(out) - 2.2).abs() < 1e-6);
        assert!((op.voltage(vin) - 3.3).abs() < 1e-9);
        assert!((op.voltage(Netlist::GROUND)).abs() == 0.0);
    }

    #[test]
    fn diode_forward_drop() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let d = nl.node("d");
        nl.vdc("V1", a, Netlist::GROUND, 3.3).unwrap();
        nl.resistor("R1", a, d, 6.0e3).unwrap();
        nl.diode("D1", d, Netlist::GROUND, DiodeModel::new())
            .unwrap();
        let c = nl.compile().unwrap();
        let op = operating_point(&c, &DcOptions::default()).unwrap();
        let vd = op.voltage(d);
        assert!((0.8..1.0).contains(&vd), "diode drop {vd}");
        // Current through R1 matches the diode law.
        let i = (3.3 - vd) / 6.0e3;
        let model_v = DiodeModel::new().forward_voltage(i);
        assert!((vd - model_v).abs() < 1e-3);
    }

    #[test]
    fn bjt_current_mirror_ish_bias() {
        // Current-source transistor with emitter degeneration, as in the
        // tail of a CML gate.
        let mut nl = Netlist::new();
        let vcc = nl.node("vcc");
        let b = nl.node("b");
        let col = nl.node("c");
        let e = nl.node("e");
        nl.vdc("VCC", vcc, Netlist::GROUND, 3.3).unwrap();
        nl.vdc("VB", b, Netlist::GROUND, 1.3).unwrap();
        nl.resistor("RC", vcc, col, 1.0e3).unwrap();
        nl.resistor("RE", e, Netlist::GROUND, 1.0e3).unwrap();
        nl.bjt("Q1", col, b, e, BjtModel::fast_npn()).unwrap();
        let c = nl.compile().unwrap();
        let op = operating_point(&c, &DcOptions::default()).unwrap();
        // IE ≈ (1.3 - 0.9)/1k = 0.4 mA.
        let ie = op.voltage(e) / 1.0e3;
        assert!((0.3e-3..0.5e-3).contains(&ie), "tail current {ie}");
        // Collector resistor sees almost the same current.
        let ic = (3.3 - op.voltage(col)) / 1.0e3;
        assert!((ic - ie).abs() < 0.05 * ie);
    }

    #[test]
    fn differential_pair_steers_current() {
        let mut nl = Netlist::new();
        let vcc = nl.node("vcc");
        let bp = nl.node("bp");
        let bn = nl.node("bn");
        let cp = nl.node("cp");
        let cn = nl.node("cn");
        let tail = nl.node("tail");
        nl.vdc("VCC", vcc, Netlist::GROUND, 3.3).unwrap();
        nl.vdc("VBP", bp, Netlist::GROUND, 2.0).unwrap();
        nl.vdc("VBN", bn, Netlist::GROUND, 1.75).unwrap();
        nl.resistor("RCP", vcc, cp, 1.0e3).unwrap();
        nl.resistor("RCN", vcc, cn, 1.0e3).unwrap();
        nl.bjt("Q1", cp, bp, tail, BjtModel::fast_npn()).unwrap();
        nl.bjt("Q2", cn, bn, tail, BjtModel::fast_npn()).unwrap();
        nl.idc("IT", tail, Netlist::GROUND, 0.4e-3).unwrap();
        let c = nl.compile().unwrap();
        let op = operating_point(&c, &DcOptions::default()).unwrap();
        // 250 mV of differential drive fully steers the current: cp pulled
        // low by ~0.4 V, cn stays at the rail.
        let vcp = op.voltage(cp);
        let vcn = op.voltage(cn);
        assert!((3.3 - vcp - 0.4).abs() < 0.02, "vcp = {vcp}");
        assert!((3.3 - vcn).abs() < 0.02, "vcn = {vcn}");
    }

    #[test]
    fn sweep_vsource_continuation() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let d = nl.node("d");
        nl.vdc("V1", a, Netlist::GROUND, 0.0).unwrap();
        nl.resistor("R1", a, d, 1.0e3).unwrap();
        nl.diode("D1", d, Netlist::GROUND, DiodeModel::new())
            .unwrap();
        let c = nl.compile().unwrap();
        let values: Vec<f64> = (0..8).map(|i| i as f64 * 0.5).collect();
        let sols = sweep_vsource(&c, "V1", &values, &DcOptions::default()).unwrap();
        assert_eq!(sols.len(), values.len());
        // Diode voltage saturates near 0.9 V while the source keeps rising.
        let last = sols.last().unwrap().voltage(d);
        assert!((0.85..1.0).contains(&last), "vd = {last}");
        // Monotone in source value.
        for w in sols.windows(2) {
            assert!(w[1].voltage(d) >= w[0].voltage(d) - 1e-9);
        }
    }

    #[test]
    fn easy_circuit_reports_plain_newton() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.vdc("V1", vin, Netlist::GROUND, 3.3).unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.resistor("R2", out, Netlist::GROUND, 2.0e3).unwrap();
        let c = nl.compile().unwrap();
        let op = operating_point(&c, &DcOptions::default()).unwrap();
        let report = op.report();
        assert_eq!(report.succeeded, Some(RecoveryRung::Newton));
        assert!(!report.escalated());
        assert_eq!(report.attempts.len(), 1);
        assert!(report.total_iterations() > 0);
        assert!(report.summary().contains("newton"));
    }

    #[test]
    fn starved_newton_escalates_and_still_converges() {
        // With a 3-iteration budget per attempt, plain Newton cannot settle
        // the nonlinear bias network; a homotopy rung must finish the job.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let d = nl.node("d");
        nl.vdc("V1", a, Netlist::GROUND, 3.3).unwrap();
        nl.resistor("R1", a, d, 6.0e3).unwrap();
        nl.diode("D1", d, Netlist::GROUND, DiodeModel::new())
            .unwrap();
        let c = nl.compile().unwrap();
        let opts = DcOptions {
            max_iterations: 3,
            ..DcOptions::default()
        };
        let op = operating_point(&c, &opts).unwrap();
        let report = op.report();
        assert!(
            report.escalated(),
            "expected escalation: {}",
            report.summary()
        );
        assert!(report.attempts.len() > 1);
        assert!((0.8..1.0).contains(&op.voltage(d)));
    }

    #[test]
    fn failure_embeds_report_in_error() {
        let report = {
            let mut r = ConvergenceReport::default();
            r.record(
                RecoveryRung::Newton,
                &NewtonRun {
                    iterations: 150,
                    worst_delta: 2.5,
                    worst_index: 1,
                    converged: false,
                },
            );
            r
        };
        assert!(report.summary().starts_with("no convergence"));
        let err = Error::DcNoConvergence {
            iterations: report.total_iterations(),
            residual: report.worst_residual,
            report: Some(Box::new(report)),
        };
        let msg = err.to_string();
        assert!(msg.contains("no convergence after 1 rungs"), "{msg}");
    }

    #[test]
    fn worst_node_name_maps_back_to_netlist() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        nl.vdc("V1", vin, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", vin, Netlist::GROUND, 1.0e3).unwrap();
        let c = nl.compile().unwrap();
        let mut r = ConvergenceReport::default();
        r.record(
            RecoveryRung::Newton,
            &NewtonRun {
                iterations: 5,
                worst_delta: 1.0,
                worst_index: vin.unknown().unwrap(),
                converged: false,
            },
        );
        assert_eq!(r.worst_node_name(&c), Some("vin"));
    }

    #[test]
    fn sweep_rejects_non_vsource() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1.0).unwrap();
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        let c = nl.compile().unwrap();
        assert!(sweep_vsource(&c, "R1", &[1.0], &DcOptions::default()).is_err());
    }
}
