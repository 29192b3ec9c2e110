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

use super::budget::{BudgetTracker, Phase, RunBudget};
use super::dc::{self, DcOptions};
use super::mna::{Assembler, EvalMode, Integration, Method, SolveWorkspace};
use crate::error::Error;
use crate::linalg::SolveQuality;
use crate::netlist::{Circuit, NodeId};
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
    /// End time, seconds.
    pub t_stop: f64,
    /// Largest allowed step (`0.0` → `t_stop / 200`).
    pub h_max: f64,
    /// Smallest allowed step before the run aborts.
    pub h_min: f64,
    /// First step and re-start step after breakpoints (`0.0` → `h_max / 100`).
    pub h_init: f64,
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
            h_max: 0.0,
            h_min: 1.0e-18,
            h_init: 0.0,
            dv_max: 0.06,
            method: Method::Trapezoidal,
            probes: Probe::AllNodes,
            dc: DcOptions::default(),
            initial_voltages: Vec::new(),
            budget: RunBudget::default(),
        }
    }

    /// Sets the maximum step size.
    pub fn with_h_max(mut self, h_max: f64) -> Self {
        self.h_max = h_max;
        self
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

    fn resolved(&self) -> Result<(f64, f64), Error> {
        if !(self.t_stop.is_finite() && self.t_stop > 0.0) {
            return Err(Error::InvalidOptions(format!(
                "t_stop must be positive, got {}",
                self.t_stop
            )));
        }
        let h_max = if self.h_max > 0.0 {
            self.h_max
        } else {
            self.t_stop / 200.0
        };
        let h_init = if self.h_init > 0.0 {
            self.h_init
        } else {
            h_max / 100.0
        };
        Ok((h_max, h_init))
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
#[derive(Debug, Clone)]
pub struct TranResult {
    time: Vec<f64>,
    nodes: Vec<NodeId>,
    data: Vec<Vec<f64>>,
    accepted_steps: usize,
    rejected_steps: usize,
    newton_iterations: usize,
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

    /// Number of accepted timesteps.
    pub fn accepted_steps(&self) -> usize {
        self.accepted_steps
    }

    /// Number of rejected timestep attempts.
    pub fn rejected_steps(&self) -> usize {
        self.rejected_steps
    }

    /// Total Newton iterations across the run (performance diagnostic).
    pub fn newton_iterations(&self) -> usize {
        self.newton_iterations
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

/// [`transient_salvage`] with a caller-owned [`SolveWorkspace`]; see
/// [`transient_with`] for when that pays off.
///
/// # Errors
///
/// Same contract as [`transient_salvage`].
pub fn transient_salvage_with(
    circuit: &Circuit,
    opts: &TranOptions,
    ws: &mut SolveWorkspace,
) -> Result<TranResult, Error> {
    let (h_max, h_init) = opts.resolved()?;
    let started = Instant::now();
    let lu_before = ws.solver.stats();
    let _tran_span = telemetry::span("transient");
    let mut assembler = Assembler::new(circuit);
    let mut tracker = BudgetTracker::new(&opts.budget, Phase::Transient);

    // Initial operating point with sources at t = 0.
    let mut x = dc::operating_point_with(circuit, &opts.dc, &mut assembler, ws, &mut tracker)?;
    // Apply .IC overrides before charge initialization so capacitors start
    // from the forced voltages.
    for &(node, volts) in &opts.initial_voltages {
        if let Some(i) = node.unknown() {
            x[i] = volts;
        }
    }
    assembler.init_charges(&x);

    // Breakpoints from every source.
    let mut breakpoints: Vec<f64> = Vec::new();
    for (_, e) in circuit.elements() {
        match e {
            crate::netlist::Element::VoltageSource { wave, .. }
            | crate::netlist::Element::CurrentSource { wave, .. } => {
                wave.breakpoints(opts.t_stop, &mut breakpoints);
            }
            _ => {}
        }
    }
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
    let mut bp_iter = breakpoints.into_iter().peekable();

    // Probe bookkeeping.
    let nodes: Vec<NodeId> = match &opts.probes {
        Probe::AllNodes => circuit.node_ids().collect(),
        Probe::Nodes(list) => list.clone(),
    };
    let mut result = TranResult {
        time: Vec::new(),
        nodes: nodes.clone(),
        data: vec![Vec::new(); nodes.len()],
        accepted_steps: 0,
        rejected_steps: 0,
        newton_iterations: 0,
        failure: None,
        quality: ws.solver.last_quality(),
        telemetry: TelemetrySummary::default(),
    };
    fn record(result: &mut TranResult, t: f64, x: &[f64]) {
        result.time.push(t);
        for k in 0..result.nodes.len() {
            let v = match result.nodes[k].unknown() {
                Some(i) => x[i],
                None => 0.0,
            };
            result.data[k].push(v);
        }
    }
    record(&mut result, 0.0, &x);

    let n_nodes = circuit.node_unknowns();

    let mut t = 0.0;
    let mut h = h_init.min(h_max);
    let mut prev: Option<(Vec<f64>, f64)> = None; // (x at previous point, h used)
    let mut force_be = true; // first step after DC: backward Euler
    let mut be_retry = false; // salvage: retry a failed trap step with BE
    let t_end = opts.t_stop;

    while t < t_end * (1.0 - 1e-12) {
        h = h.min(h_max).min(t_end - t);
        // Land exactly on the next breakpoint.
        let mut hit_bp = false;
        if let Some(&bp) = bp_iter.peek() {
            if t + h >= bp - 1e-21 {
                h = bp - t;
                hit_bp = true;
                if h <= 0.0 {
                    bp_iter.next();
                    continue;
                }
            }
        }

        // Budget gate: one timestep attempt (accepted or rejected) is the
        // unit of accounting. A budget that runs out here salvages the
        // prefix computed so far instead of erroring the whole run.
        tracker.set_progress((t / t_end).clamp(0.0, 1.0));
        if let Err(err) = tracker.check() {
            result.failure = Some(TranFailure {
                time: t,
                progress: (t / t_end).clamp(0.0, 1.0),
                error: err,
            });
            break;
        }
        tracker.count_timestep();

        // Predictor: linear extrapolation of the last accepted step.
        let mut guess = x.clone();
        if let Some((x_prev, h_prev)) = &prev {
            if *h_prev > 0.0 {
                let r = h / h_prev;
                for i in 0..guess.len() {
                    guess[i] = x[i] + (x[i] - x_prev[i]) * r;
                }
            }
        }

        let method = if force_be || be_retry {
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
        assembler.reset_junctions(&x);
        match dc::newton(
            &mut assembler,
            &mode,
            &mut guess,
            &opts.dc,
            ws,
            &mut tracker,
        ) {
            Ok(iters) => {
                result.newton_iterations += iters;
                result.quality = result.quality.worst(ws.solver.last_quality());
                // Voltage-change step control.
                let dv = guess[..n_nodes]
                    .iter()
                    .zip(&x[..n_nodes])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                if dv > opts.dv_max && h > 4.0 * opts.h_min && !(hit_bp && h <= h_init) {
                    result.rejected_steps += 1;
                    be_retry = false;
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
                    h *= (opts.dv_max / dv).max(0.25) * 0.9;
                    continue;
                }
                // Accept.
                assembler.commit_charges();
                prev = Some((std::mem::replace(&mut x, guess), h));
                t += h;
                result.accepted_steps += 1;
                record(&mut result, t, &x);
                if telemetry::enabled() {
                    telemetry::event(
                        "step_accept",
                        &[
                            ("t", t.into()),
                            ("h", h.into()),
                            ("iters", iters.into()),
                            ("dv", dv.into()),
                        ],
                    );
                }
                be_retry = false;
                if hit_bp {
                    bp_iter.next();
                    h = h_init;
                    force_be = true;
                } else {
                    force_be = false;
                    if iters <= 5 && dv < 0.5 * opts.dv_max {
                        h *= 1.5;
                    }
                }
            }
            // A spent budget or a failed certification inside the step is
            // non-retriable: no BE retry, no step shrink — salvage the
            // prefix immediately.
            Err(err) if err.is_non_retriable() => {
                result.failure = Some(TranFailure {
                    time: t,
                    progress: (t / t_end).clamp(0.0, 1.0),
                    error: err,
                });
                break;
            }
            Err(err) => {
                result.rejected_steps += 1;
                // Salvage rung 1: a trapezoidal step that Newton rejects is
                // often rescued by backward Euler at the *same* size (no
                // trap ringing, heavier damping). Try that once before
                // shrinking the step.
                if !be_retry && method == Method::Trapezoidal {
                    be_retry = true;
                    if telemetry::enabled() {
                        telemetry::event("be_retry", &[("t", t.into()), ("h", h.into())]);
                    }
                    continue;
                }
                be_retry = false;
                if telemetry::enabled() {
                    telemetry::event("step_reject_newton", &[("t", t.into()), ("h", h.into())]);
                }
                h *= 0.25;
                if h < opts.h_min {
                    // Salvage rung 2: keep the waveform computed so far and
                    // report where and why the run died.
                    result.failure = Some(TranFailure {
                        time: t,
                        progress: (t / t_end).clamp(0.0, 1.0),
                        error: match err {
                            e @ Error::SingularMatrix { .. } => e,
                            _ => Error::TimestepTooSmall { time: t, step: h },
                        },
                    });
                    break;
                }
            }
        }
    }
    if telemetry::enabled() {
        // Deadline and certification failures already dumped the flight
        // recorder at their source (budget tracker / solve certifier); dump
        // here only for failures first diagnosed by the stepper itself.
        if let Some(fail) = &result.failure {
            if !matches!(
                fail.error,
                Error::DeadlineExceeded { .. } | Error::UntrustedSolution { .. }
            ) {
                telemetry::record_failure("TranFailure", &fail.summary());
            }
        }
    }
    result.telemetry = TelemetrySummary {
        analyses: 1,
        wall: started.elapsed(),
        newton_iterations: result.newton_iterations as u64,
        accepted_steps: result.accepted_steps as u64,
        rejected_steps: result.rejected_steps as u64,
        lu: ws.solver.stats().delta_since(&lu_before),
        worst_backward_error: Some(result.quality.backward_error),
        ..TelemetrySummary::default()
    };
    telemetry::record_summary(&result.telemetry);
    Ok(result)
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
