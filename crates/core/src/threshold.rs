//! Detectability analysis (§6.1/§6.2): which pipe severities — and hence
//! which output amplitudes — each detector variant flags.
//!
//! The paper summarizes variant 1 as detecting amplitudes above 0.57 V
//! (≈ a 3 kΩ pipe on Q3) and variant 2, with `vtest = 3.7 V`, down to
//! ≈ 0.35 V (≈ a 5 kΩ pipe). This module reproduces that analysis: sweep
//! the pipe resistance, measure the resulting amplitude at the faulty
//! gate and the settled detector response, and report the smallest
//! detectable amplitude under a given decision margin.

use crate::detector::{DetectorHandle, Variant1, Variant2};
use cml_cells::{waveform_of, CmlCircuitBuilder, CmlProcess, DiffPair};
use faults::Defect;
use spicier::analysis::sweep::{par_try_map, TryMapOptions};
use spicier::analysis::tran::{transient_salvage, TranOptions, TranResult};
use spicier::{Error, RunBudget};
use waveform::LevelStats;

/// Either single-output-pair detector variant (variant 3 shares variant
/// 2's front end; its thresholds are set by the comparator band instead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyDetector {
    /// §6.1 single-sided detector.
    V1(Variant1),
    /// §6.2 double-sided detector with controlled bias.
    V2(Variant2),
}

impl AnyDetector {
    fn attach(
        &self,
        b: &mut CmlCircuitBuilder,
        inst: &str,
        pair: DiffPair,
    ) -> Result<DetectorHandle, Error> {
        match self {
            AnyDetector::V1(v) => v.attach(b, inst, pair),
            AnyDetector::V2(v) => v.attach(b, inst, pair),
        }
    }
}

/// One pipe-sweep measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Pipe resistance planted on the DUT's Q3 (`f64::INFINITY` =
    /// fault-free).
    pub pipe_ohms: f64,
    /// Measured single-ended amplitude (swing) at the DUT output, volts.
    pub amplitude: f64,
    /// Settled detector output voltage, volts.
    pub vout: f64,
}

/// Options for the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Stimulus frequency, hertz.
    pub freq: f64,
    /// Simulated time, seconds (must cover the detector's settling).
    pub t_stop: f64,
    /// Execution budget applied to *each* transient run inside a
    /// measurement (the deadline slice restarts per run). A deadline
    /// firing mid-run is propagated, never silently salvaged into a
    /// truncated measurement.
    pub budget: RunBudget,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            freq: 100.0e6,
            t_stop: 60.0e-9,
            budget: RunBudget::default(),
        }
    }
}

/// Builds a 3-buffer chain (driver, DUT, load), optionally plants a pipe
/// on the DUT's Q3, and measures:
///
/// * the defect-induced **amplitude** on a detector-free twin circuit
///   (the paper's Figure 5 characterizes the bare chain — a variant-2
///   detector in test mode clamps large excursions and would corrupt the
///   amplitude axis);
/// * the settled detector output `vout` with `det` attached.
///
/// # Errors
///
/// Propagates construction/convergence failures.
pub fn measure_point(
    det: &AnyDetector,
    pipe_ohms: Option<f64>,
    opts: &SweepOptions,
) -> Result<SweepPoint, Error> {
    let build =
        |attach: bool| -> Result<(spicier::Circuit, DiffPair, Option<DetectorHandle>), Error> {
            let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
            let input = b.diff("a");
            b.drive_differential("a", input, opts.freq)?;
            let chain = b.buffer_chain(&["X1", "DUT", "X2"], input)?;
            let dut = &chain.cells[1];
            let dut_out = dut.output;
            let handle = if attach {
                Some(det.attach(&mut b, "DET", dut_out)?)
            } else {
                None
            };
            let mut nl = b.finish();
            if let Some(ohms) = pipe_ohms {
                Defect::pipe("DUT.Q3", ohms).inject(&mut nl)?;
            }
            Ok((nl.compile()?, dut_out, handle))
        };

    // Amplitude on the bare chain.
    let (bare, dut_out, _) = build(false)?;
    let (res, t_end) = run_or_salvage(&bare, opts)?;
    let w_out = waveform_of(&res, dut_out.p).map_err(to_spicier_err)?;
    let t0 = 0.6 * t_end;
    let stats = LevelStats::measure(&w_out, t0, t_end);

    // Detector response with the detector attached.
    let (instrumented, _, handle) = build(true)?;
    let handle = handle.expect("detector attached");
    let (res, t_end) = run_or_salvage(&instrumented, opts)?;
    let w_det = waveform_of(&res, handle.vout).map_err(to_spicier_err)?;
    // Settled detector output: mean of the final 10% (averages the ripple).
    let vout = w_det.mean_in(0.9 * t_end, t_end);
    Ok(SweepPoint {
        pipe_ohms: pipe_ohms.unwrap_or(f64::INFINITY),
        amplitude: stats.swing(),
        vout,
    })
}

fn to_spicier_err(e: waveform::WaveformError) -> Error {
    Error::InvalidOptions(format!("probe extraction failed: {e}"))
}

/// Runs a transient with salvage: if the run dies late (≥ 80% of the
/// horizon simulated) the partial waveform is measured over what exists —
/// both measurement windows here are fractions of the end time, so they
/// shrink gracefully. An early death still propagates the failure, and a
/// spent budget **always** does, no matter how far the run got: a timed-out
/// corner must surface as timed out, not as a quietly truncated reading.
fn run_or_salvage(
    circuit: &spicier::Circuit,
    opts: &SweepOptions,
) -> Result<(TranResult, f64), Error> {
    const MIN_PROGRESS: f64 = 0.8;
    let tran = TranOptions::new(opts.t_stop).with_budget(opts.budget.clone());
    let res = transient_salvage(circuit, &tran)?;
    let t_end = res.time().last().copied().unwrap_or(0.0);
    match res.failure() {
        Some(fail) if fail.error.is_deadline_exceeded() => Err(fail.error.clone()),
        Some(fail) if t_end < MIN_PROGRESS * opts.t_stop => Err(fail.error.clone()),
        _ => Ok((res, t_end.min(opts.t_stop))),
    }
}

/// Sweeps pipe resistances (plus the fault-free baseline, returned first),
/// one point per sweep worker.
///
/// # Errors
///
/// The first failed point's error, in sweep order.
pub fn pipe_sweep(
    det: &AnyDetector,
    pipes: &[f64],
    opts: &SweepOptions,
) -> Result<Vec<SweepPoint>, Error> {
    let points: Vec<Option<f64>> = std::iter::once(None)
        .chain(pipes.iter().copied().map(Some))
        .collect();
    let (slots, report) = par_try_map(points, &TryMapOptions::default(), |&pipe| {
        measure_point(det, pipe, opts)
    });
    report.into_result()?;
    Ok(slots.into_iter().flatten().collect())
}

/// The smallest amplitude the detector flags, given that a reading counts
/// as *detected* when `vout` drops at least `min_drop` volts below the
/// fault-free baseline. Returns `None` when no swept point is detected.
///
/// Points are interpolated linearly between the last undetected and first
/// detected amplitude (sorted by amplitude).
pub fn detectable_amplitude(points: &[SweepPoint], min_drop: f64) -> Option<f64> {
    let baseline = points
        .iter()
        .find(|p| p.pipe_ohms.is_infinite())
        .map(|p| p.vout)?;
    let mut faulty: Vec<&SweepPoint> = points.iter().filter(|p| p.pipe_ohms.is_finite()).collect();
    faulty.sort_by(|a, b| a.amplitude.partial_cmp(&b.amplitude).expect("finite"));
    let detected = |p: &SweepPoint| baseline - p.vout >= min_drop;
    let first = faulty.iter().position(|p| detected(p))?;
    if first == 0 {
        return Some(faulty[0].amplitude);
    }
    let (a, b) = (faulty[first - 1], faulty[first]);
    let (da, db) = (baseline - a.vout, baseline - b.vout);
    if (db - da).abs() < 1e-12 {
        return Some(b.amplitude);
    }
    let t = (min_drop - da) / (db - da);
    Some(a.amplitude + t * (b.amplitude - a.amplitude))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorLoad;

    fn fast_opts() -> SweepOptions {
        SweepOptions {
            freq: 100.0e6,
            t_stop: 40.0e-9,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn spent_budget_is_never_salvaged_into_a_reading() {
        let det = AnyDetector::V1(Variant1::new(DetectorLoad::diode_cap(1.0e-12)));
        let opts = SweepOptions {
            budget: RunBudget::unlimited().with_deadline(std::time::Duration::ZERO),
            ..fast_opts()
        };
        let err = measure_point(&det, None, &opts).unwrap_err();
        assert!(err.is_deadline_exceeded(), "{err}");
    }

    #[test]
    fn amplitude_grows_as_pipe_shrinks() {
        let det = AnyDetector::V2(Variant2::new(DetectorLoad::diode_cap(1.0e-12), 3.7));
        let points = pipe_sweep(&det, &[5.0e3, 2.0e3], &fast_opts()).unwrap();
        assert_eq!(points.len(), 3);
        let base = points[0].amplitude;
        assert!(points[1].amplitude > base + 0.1); // 5 kΩ
        assert!(points[2].amplitude > points[1].amplitude); // 2 kΩ worse
    }

    #[test]
    fn variant2_threshold_below_variant1() {
        let opts = fast_opts();
        let pipes = [5.0e3, 4.0e3, 3.0e3, 2.0e3, 1.0e3];
        let v1 = AnyDetector::V1(Variant1::new(DetectorLoad::diode_cap(1.0e-12)));
        let v2 = AnyDetector::V2(Variant2::new(DetectorLoad::diode_cap(1.0e-12), 3.7));
        let p1 = pipe_sweep(&v1, &pipes, &opts).unwrap();
        let p2 = pipe_sweep(&v2, &pipes, &opts).unwrap();
        let min_drop = 0.15;
        let a1 = detectable_amplitude(&p1, min_drop).expect("v1 detects something");
        let a2 = detectable_amplitude(&p2, min_drop).expect("v2 detects something");
        assert!(
            a2 < a1,
            "variant 2 should detect smaller amplitudes: v1 {a1:.3} V, v2 {a2:.3} V"
        );
        // Same ordering and ballpark as the paper (0.57 V vs 0.35 V): v1
        // only fires on large excursions, v2 on moderate ones.
        assert!((0.5..1.0).contains(&a1), "v1 threshold {a1}");
        assert!((0.25..0.6).contains(&a2), "v2 threshold {a2}");
    }

    #[test]
    fn detectable_amplitude_handles_edge_cases() {
        let mk = |pipe: f64, amp: f64, vout: f64| SweepPoint {
            pipe_ohms: pipe,
            amplitude: amp,
            vout,
        };
        // No baseline → None.
        assert_eq!(detectable_amplitude(&[mk(1e3, 0.8, 3.0)], 0.1), None);
        // Nothing detected → None.
        let pts = [mk(f64::INFINITY, 0.25, 3.3), mk(5e3, 0.4, 3.29)];
        assert_eq!(detectable_amplitude(&pts, 0.2), None);
        // Interpolation between two points.
        let pts = [
            mk(f64::INFINITY, 0.25, 3.3),
            mk(5e3, 0.4, 3.25), // drop 0.05
            mk(2e3, 0.6, 3.05), // drop 0.25
        ];
        let a = detectable_amplitude(&pts, 0.15).unwrap();
        assert!((0.4..0.6).contains(&a), "interpolated {a}");
    }
}
