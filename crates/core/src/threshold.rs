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
use spicier::Error;
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
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            freq: 100.0e6,
            t_stop: 60.0e-9,
        }
    }
}

/// Builds a 3-buffer chain (driver, DUT, load), optionally plants a pipe
/// on the DUT's Q3 and attaches `det` to the DUT's output, and returns
/// the compiled circuit, the DUT's output pair and the detector.
fn sweep_chain(
    det: Option<&AnyDetector>,
    pipe_ohms: Option<f64>,
    opts: &SweepOptions,
) -> Result<(spicier::Circuit, DiffPair, Option<DetectorHandle>), Error> {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let input = b.diff("a");
    b.drive_differential("a", input, opts.freq)?;
    let chain = b.buffer_chain(&["X1", "DUT", "X2"], input)?;
    let dut_out = chain.cells[1].output;
    let handle = det
        .map(|det| det.attach(&mut b, "DET", dut_out))
        .transpose()?;
    let mut nl = b.finish();
    if let Some(ohms) = pipe_ohms {
        Defect::pipe("DUT.Q3", ohms).inject(&mut nl)?;
    }
    Ok((nl.compile()?, dut_out, handle))
}

/// One transient of a pipe sweep, with what it measures:
///
/// * `det: None` — the defect-induced **amplitude** (swing) at the DUT
///   output of the detector-free "bare" chain (the paper's Figure 5
///   characterizes the bare chain — a variant-2 detector in test mode
///   clamps large excursions and would corrupt the amplitude axis);
/// * `det: Some(_)` — the settled detector output `vout` with the
///   detector attached.
///
/// # Errors
///
/// Propagates construction/convergence failures.
fn measure(
    det: Option<&AnyDetector>,
    pipe_ohms: Option<f64>,
    opts: &SweepOptions,
) -> Result<f64, Error> {
    let (circuit, dut_out, handle) = sweep_chain(det, pipe_ohms, opts)?;
    let (res, t_end) = run_or_salvage(&circuit, opts)?;
    match handle {
        None => {
            let w_out = waveform_of(&res, dut_out.p).map_err(to_spicier_err)?;
            Ok(LevelStats::measure(&w_out, 0.6 * t_end, t_end).swing())
        }
        Some(handle) => {
            let w_det = waveform_of(&res, handle.vout).map_err(to_spicier_err)?;
            // Settled detector output: mean of the final 10% (averages the
            // ripple).
            Ok(w_det.mean_in(0.9 * t_end, t_end))
        }
    }
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
    let res = transient_salvage(circuit, &TranOptions::new(opts.t_stop))?;
    let t_end = res.time().last().copied().unwrap_or(0.0);
    match res.failure() {
        Some(fail) if fail.error.is_deadline_exceeded() => Err(fail.error.clone()),
        Some(fail) if t_end < MIN_PROGRESS * opts.t_stop => Err(fail.error.clone()),
        _ => Ok((res, t_end.min(opts.t_stop))),
    }
}

/// Sweeps pipe resistances (plus the fault-free baseline, returned first)
/// for each detector in `dets`, returning one list of points per detector.
/// `map` sets the sweep workers' per-task deadline and worker count.
///
/// The amplitude of a point does not depend on the detector, so each
/// bare chain is simulated once and shared. Every bare and instrumented
/// transient is one task on the sweep workers.
///
/// # Errors
///
/// The first failed transient's error in the order a detector-by-detector
/// sweep meets them: the first detector's points in sweep order, each bare
/// chain before its instrumented twin, then each further detector's
/// instrumented points.
pub fn pipe_sweep(
    dets: &[AnyDetector],
    pipes: &[f64],
    opts: &SweepOptions,
    map: &TryMapOptions,
) -> Result<Vec<Vec<SweepPoint>>, Error> {
    let points: Vec<Option<f64>> = std::iter::once(None)
        .chain(pipes.iter().copied().map(Some))
        .collect();
    // `(detector, pipe)`; a `None` detector is the bare chain.
    let mut runs: Vec<(Option<&AnyDetector>, Option<f64>)> = Vec::new();
    for (k, det) in dets.iter().enumerate() {
        for &pipe in &points {
            if k == 0 {
                runs.push((None, pipe));
            }
            runs.push((Some(det), pipe));
        }
    }
    let (slots, report) = par_try_map(runs, map, |&(det, pipe)| measure(det, pipe, opts));
    report.into_result()?;
    // Readings arrive in `runs` order: bare and first-detector readings
    // interleaved, then each further detector's.
    let mut readings = slots.into_iter().flatten();
    let mut next = || readings.next().expect("every transient succeeded");
    let mut amplitudes = Vec::with_capacity(points.len());
    let mut sweeps = Vec::with_capacity(dets.len());
    for k in 0..dets.len() {
        let mut sweep = Vec::with_capacity(points.len());
        for (i, pipe) in points.iter().enumerate() {
            if k == 0 {
                amplitudes.push(next());
            }
            sweep.push(SweepPoint {
                pipe_ohms: pipe.unwrap_or(f64::INFINITY),
                amplitude: amplitudes[i],
                vout: next(),
            });
        }
        sweeps.push(sweep);
    }
    Ok(sweeps)
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
        }
    }

    #[test]
    fn spent_budget_is_never_salvaged_into_a_reading() {
        let det = AnyDetector::V1(Variant1::new(DetectorLoad::diode_cap(1.0e-12)));
        let expired = spicier::CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = spicier::analysis::with_corner_token(&expired, || {
            measure(Some(&det), None, &fast_opts())
        })
        .unwrap_err();
        assert!(err.is_deadline_exceeded(), "{err}");
    }

    #[test]
    fn amplitude_grows_as_pipe_shrinks() {
        let det = AnyDetector::V2(Variant2::new(DetectorLoad::diode_cap(1.0e-12), 3.7));
        let points = pipe_sweep(
            &[det],
            &[5.0e3, 2.0e3],
            &fast_opts(),
            &TryMapOptions::default(),
        )
        .unwrap()
        .remove(0);
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
        let both = pipe_sweep(&[v1, v2], &pipes, &opts, &TryMapOptions::default()).unwrap();
        let (p1, p2) = (&both[0], &both[1]);
        let min_drop = 0.15;
        let a1 = detectable_amplitude(p1, min_drop).expect("v1 detects something");
        let a2 = detectable_amplitude(p2, min_drop).expect("v2 detects something");
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
    fn shared_bare_chains_change_no_bit() {
        let opts = fast_opts();
        let pipes = [4.0e3, 2.0e3];
        let v1 = AnyDetector::V1(Variant1::new(DetectorLoad::diode_cap(1.0e-12)));
        let v2 = AnyDetector::V2(Variant2::new(DetectorLoad::diode_cap(1.0e-12), 3.7));
        let bits = |sweeps: Vec<Vec<SweepPoint>>| -> Vec<[u64; 3]> {
            sweeps
                .iter()
                .flatten()
                .map(|p| [p.pipe_ohms, p.amplitude, p.vout].map(f64::to_bits))
                .collect()
        };
        let both = bits(pipe_sweep(&[v1, v2], &pipes, &opts, &TryMapOptions::default()).unwrap());
        let mut apart = bits(pipe_sweep(&[v1], &pipes, &opts, &TryMapOptions::default()).unwrap());
        apart.extend(bits(
            pipe_sweep(&[v2], &pipes, &opts, &TryMapOptions::default()).unwrap(),
        ));
        assert_eq!(both, apart);
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
