//! Small-signal noise analysis.
//!
//! Computes the output-referred noise voltage spectral density at a chosen
//! node by the adjoint method: one complex solve of the *transposed*
//! system `(G + jωC)ᵀ·y = e_out` per frequency yields the transfer from
//! **every** noise source to the output simultaneously (`|H_k| = |y|` at
//! the source's terminals), so total cost is independent of the number of
//! sources.
//!
//! Modeled sources:
//! * resistors — thermal (Johnson) current noise, `S_i = 4kT/R`;
//! * diodes — shot noise, `S_i = 2q·I_d`;
//! * BJTs — collector shot noise `2q·I_c` (collector–emitter) and base
//!   shot noise `2q·I_b` (base–emitter).
//!
//! Flicker noise is omitted (the paper's detectors integrate over
//! nanoseconds; `1/f` corners sit far below the band of interest).

use super::budget::{BudgetTracker, Phase, RunBudget};
use super::dc::{self, DcOptions};
use super::mna::{Assembler, SolveWorkspace};
use crate::error::Error;
use crate::linalg::complex::{Complex, ComplexDenseMatrix};
use crate::linalg::SolveQuality;
use crate::netlist::{Circuit, Element, NodeId};
use crate::telemetry::{self, TelemetrySummary};
use std::time::Instant;

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380649e-23;
/// Elementary charge, C.
pub const Q_ELECTRON: f64 = 1.602176634e-19;
/// Analysis temperature, kelvin (matches the device models' 300.15 K).
pub const TEMPERATURE: f64 = 300.15;

/// Options for [`noise_analysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseOptions {
    /// Node whose noise voltage is computed.
    pub output: NodeId,
    /// Frequencies to evaluate, hertz.
    pub freqs: Vec<f64>,
    /// DC options for the operating point.
    pub dc: DcOptions,
}

impl NoiseOptions {
    /// Output noise at `output` over `freqs`.
    pub fn new(output: NodeId, freqs: Vec<f64>) -> Self {
        Self {
            output,
            freqs,
            dc: DcOptions::default(),
        }
    }
}

/// Result: output noise voltage PSD per frequency.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    freqs: Vec<f64>,
    /// Output noise voltage PSD, V²/Hz, per frequency.
    psd: Vec<f64>,
    quality: SolveQuality,
    telemetry: TelemetrySummary,
}

/// Equality covers the numerical outcome only; the telemetry rollup is
/// excluded because its wall-clock component differs between otherwise
/// identical runs.
impl PartialEq for NoiseResult {
    fn eq(&self, other: &Self) -> bool {
        self.freqs == other.freqs && self.psd == other.psd && self.quality == other.quality
    }
}

impl NoiseResult {
    /// The frequency grid.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Output noise voltage PSD, V²/Hz.
    pub fn psd(&self) -> &[f64] {
        &self.psd
    }

    /// Worst linear-solve certification across the run: the pessimistic
    /// merge of the operating point's quality and every per-frequency
    /// adjoint solve.
    pub fn quality(&self) -> SolveQuality {
        self.quality
    }

    /// Telemetry rollup for this run (wall time, kernel counters from the
    /// operating point, worst certification across all adjoint solves).
    pub fn telemetry(&self) -> &TelemetrySummary {
        &self.telemetry
    }

    /// RMS noise voltage integrated across the grid (trapezoidal in
    /// frequency), volts.
    pub fn integrated_rms(&self) -> f64 {
        let mut power = 0.0;
        for k in 1..self.freqs.len() {
            let df = self.freqs[k] - self.freqs[k - 1];
            power += 0.5 * (self.psd[k] + self.psd[k - 1]) * df;
        }
        power.sqrt()
    }
}

/// A noise current source between two nodes with a given PSD.
struct NoiseSource {
    p: NodeId,
    n: NodeId,
    /// Current PSD, A²/Hz.
    psd: f64,
}

/// Runs the noise analysis.
///
/// # Errors
///
/// Fails when the output is ground ([`Error::InvalidOptions`]), the
/// operating point does not converge, a frequency point is singular, or
/// the corner token installed with
/// [`with_corner_token`](super::budget::with_corner_token) is cancelled
/// ([`Error::DeadlineExceeded`] with phase `noise`).
pub fn noise_analysis(circuit: &Circuit, opts: &NoiseOptions) -> Result<NoiseResult, Error> {
    let started = Instant::now();
    let _span = telemetry::span("noise");
    let mut tracker = BudgetTracker::new(&RunBudget::default(), Phase::Noise);
    let out_idx = opts
        .output
        .unknown()
        .ok_or_else(|| Error::InvalidOptions("noise output cannot be ground".to_string()))?;
    // Operating point (bias-dependent shot noise).
    let mut assembler = Assembler::new(circuit);
    let mut ws = SolveWorkspace::for_circuit(circuit);
    let (x_op, op) =
        dc::recover_operating_point(circuit, &opts.dc, &mut assembler, &mut ws, &mut tracker)?;
    let mut quality = ws.solver.last_quality();
    let v_of = |node: NodeId| -> f64 {
        match node.unknown() {
            Some(i) => x_op[i],
            None => 0.0,
        }
    };

    // Collect noise sources at the operating point.
    let four_kt = 4.0 * BOLTZMANN * TEMPERATURE;
    let mut sources = Vec::new();
    for (_, element) in circuit.elements() {
        match element {
            Element::Resistor { p, n, value } => sources.push(NoiseSource {
                p: *p,
                n: *n,
                psd: four_kt / value,
            }),
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let id = model.eval(v_of(*anode) - v_of(*cathode)).id.abs();
                sources.push(NoiseSource {
                    p: *anode,
                    n: *cathode,
                    psd: 2.0 * Q_ELECTRON * id,
                });
            }
            Element::Bjt {
                collector,
                base,
                emitter,
                model,
            } => {
                let s = model.polarity.sign();
                let vbe = s * (v_of(*base) - v_of(*emitter));
                let vbc = s * (v_of(*base) - v_of(*collector));
                let eval = model.eval(vbe, vbc);
                sources.push(NoiseSource {
                    p: *collector,
                    n: *emitter,
                    psd: 2.0 * Q_ELECTRON * eval.ic.abs(),
                });
                sources.push(NoiseSource {
                    p: *base,
                    n: *emitter,
                    psd: 2.0 * Q_ELECTRON * eval.ib.abs(),
                });
            }
            _ => {}
        }
    }

    // The AC linearization; the adjoint solves below use its transpose.
    let (g, c) = super::ac::linearized_matrices(circuit, &mut assembler, &x_op, opts.dc.gmin);

    let dim = circuit.dim();

    let mut psd_out = Vec::with_capacity(opts.freqs.len());
    for (k, &f) in opts.freqs.iter().enumerate() {
        tracker.set_progress(k as f64 / opts.freqs.len().max(1) as f64);
        tracker.check()?;
        let omega = 2.0 * std::f64::consts::PI * f;
        // Adjoint system: transpose of (G + jωC).
        let mut at = ComplexDenseMatrix::zeros(dim);
        for &(r, col, v) in g.entries() {
            at.add(col, r, Complex::real(v));
        }
        for &(r, col, v) in c.entries() {
            at.add(col, r, Complex::imag(omega * v));
        }
        let mut y = vec![Complex::ZERO; dim];
        y[out_idx] = Complex::ONE;
        quality = quality.worst(at.solve_in_place(&mut y)?);
        // Transfer from a current source (p → n) to the output is
        // y[p] − y[n]; superpose powers.
        let mut total = 0.0;
        for src in &sources {
            let yp = match src.p.unknown() {
                Some(i) => y[i],
                None => Complex::ZERO,
            };
            let yn = match src.n.unknown() {
                Some(i) => y[i],
                None => Complex::ZERO,
            };
            let h = (yp - yn).abs();
            total += h * h * src.psd;
        }
        psd_out.push(total);
    }
    let summary = TelemetrySummary {
        analyses: 1,
        wall: started.elapsed(),
        newton_iterations: op.total_iterations() as u64,
        rung_iterations: op.rung_iterations(),
        lu: ws.solver.stats(),
        worst_backward_error: Some(quality.backward_error),
        ..TelemetrySummary::default()
    };
    telemetry::record_summary(&summary);
    Ok(NoiseResult {
        freqs: opts.freqs.clone(),
        psd: psd_out,
        quality,
        telemetry: summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ac::decade_freqs;
    use crate::netlist::Netlist;

    #[test]
    fn resistor_thermal_noise_matches_johnson() {
        // A 1 kΩ resistor to ground: output PSD = 4kTR at low frequency.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
        nl.vdc("VB", a, Netlist::GROUND, 0.0).unwrap();
        // Hmm: a voltage source on the node would short the noise; use a
        // big bias resistor instead to keep the node defined.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
        nl.resistor("RBIG", a, Netlist::GROUND, 1.0e12).unwrap();
        let circuit = nl.compile().unwrap();
        let res = noise_analysis(&circuit, &NoiseOptions::new(a, vec![1.0e3, 1.0e6])).unwrap();
        let expected = 4.0 * BOLTZMANN * TEMPERATURE * 1.0e3;
        for &p in res.psd() {
            assert!(
                (p - expected).abs() < 0.01 * expected,
                "PSD {p:.3e} vs 4kTR {expected:.3e}"
            );
        }
    }

    #[test]
    fn rc_integrated_noise_is_kt_over_c() {
        // The classic: total noise of an RC filter is kT/C, independent of R.
        let kt_over_c = |r: f64, c: f64| -> f64 {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let b = nl.node("b");
            nl.vdc("V1", a, Netlist::GROUND, 0.0).unwrap();
            nl.resistor("R1", a, b, r).unwrap();
            nl.capacitor("C1", b, Netlist::GROUND, c).unwrap();
            let circuit = nl.compile().unwrap();
            // Integrate far past the pole.
            let f_pole = 1.0 / (2.0 * std::f64::consts::PI * r * c);
            let freqs = decade_freqs(f_pole * 1e-3, f_pole * 1e4, 20);
            let res = noise_analysis(&circuit, &NoiseOptions::new(b, freqs)).unwrap();
            res.integrated_rms()
        };
        let c = 1.0e-12;
        let expected = (BOLTZMANN * TEMPERATURE / c).sqrt(); // ≈ 64 µV at 1 pF
        for r in [1.0e3, 100.0e3] {
            let rms = kt_over_c(r, c);
            assert!(
                (rms - expected).abs() < 0.03 * expected,
                "R = {r}: rms {rms:.3e} vs sqrt(kT/C) {expected:.3e}"
            );
        }
    }

    #[test]
    fn bjt_shot_noise_appears_at_the_collector() {
        // Biased common-emitter stage: collector shot noise through RC
        // dominates → PSD ≈ 2qIc·Rc² + 4kT·Rc at the collector.
        let mut nl = Netlist::new();
        let vcc = nl.node("vcc");
        let b = nl.node("b");
        let c = nl.node("c");
        nl.vdc("VCC", vcc, Netlist::GROUND, 3.3).unwrap();
        nl.vdc("VB", b, Netlist::GROUND, 0.9).unwrap();
        nl.resistor("RC", vcc, c, 1.0e3).unwrap();
        nl.bjt(
            "Q1",
            c,
            b,
            Netlist::GROUND,
            crate::devices::BjtModel::fast_npn(),
        )
        .unwrap();
        let circuit = nl.compile().unwrap();
        let res = noise_analysis(&circuit, &NoiseOptions::new(c, vec![1.0e6])).unwrap();
        // Ic at vbe = 0.9 is ≈ 0.39 mA (the calibration point).
        let ic = 0.39e-3;
        let shot = 2.0 * Q_ELECTRON * ic * 1.0e3 * 1.0e3;
        let thermal = 4.0 * BOLTZMANN * TEMPERATURE * 1.0e3;
        let expected = shot + thermal;
        let p = res.psd()[0];
        assert!(
            (p - expected).abs() < 0.25 * expected,
            "PSD {p:.3e} vs expected {expected:.3e}"
        );
        // Shot noise dominates thermal here by ~30x.
        assert!(p > 5.0 * thermal);
    }

    /// The output is checked before any solve: with a second, parallel
    /// 2 V source there is no operating point, and a ground output must
    /// still be reported as such.
    #[test]
    fn ground_output_is_rejected() {
        for contradictory in [false, true] {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
            nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
            if contradictory {
                nl.vdc("V2", a, Netlist::GROUND, 2.0).unwrap();
            }
            let circuit = nl.compile().unwrap();
            let res = noise_analysis(&circuit, &NoiseOptions::new(Netlist::GROUND, vec![1.0e3]));
            assert!(matches!(res, Err(Error::InvalidOptions(_))), "{res:?}");
        }
    }
}
