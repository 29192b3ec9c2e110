//! Pass/fail decision and comparator hysteresis (§6.3, Figure 12).
//!
//! The variant-3 comparator's positive feedback creates a hysteresis band:
//! below some `fail_below` voltage a detector output is *guaranteed* to be
//! flagged, above some `pass_above` it is *guaranteed* to read fault-free,
//! and in between the answer depends on history. The paper measures
//! 3.54 V / 3.57 V for its design; [`characterize_hysteresis`] regenerates
//! the band for any [`Variant3`] configuration by forcing `vout` up and
//! down and watching the flag.

use crate::detector::Variant3;
use cml_cells::{CmlCircuitBuilder, CmlProcess};
use spicier::analysis::dc::{sweep_vsource, DcOptions};
use spicier::analysis::sweep::linspace;
use spicier::netlist::Netlist;
use spicier::Error;

/// Classification of one detector reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorVerdict {
    /// Guaranteed healthy.
    Pass,
    /// Guaranteed faulty.
    Fail,
    /// Inside the hysteresis band: the comparator's answer depends on its
    /// previous state.
    Marginal,
}

/// The comparator's hysteresis thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisBand {
    /// A gate with `vout ≤ fail_below` is always flagged (paper: 3.54 V).
    pub fail_below: f64,
    /// A gate with `vout ≥ pass_above` is always declared healthy
    /// (paper: 3.57 V).
    pub pass_above: f64,
}

impl HysteresisBand {
    /// Width of the ambiguous band.
    pub fn width(&self) -> f64 {
        self.pass_above - self.fail_below
    }

    /// Classifies a settled detector output voltage.
    pub fn classify(&self, vout: f64) -> DetectorVerdict {
        if vout <= self.fail_below {
            DetectorVerdict::Fail
        } else if vout >= self.pass_above {
            DetectorVerdict::Pass
        } else {
            DetectorVerdict::Marginal
        }
    }
}

/// One point of the measured hysteresis curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisPoint {
    /// Forced detector output voltage.
    pub vout: f64,
    /// Comparator feedback node voltage.
    pub vfb: f64,
    /// Comparator pass-flag voltage.
    pub flagp: f64,
}

/// The full Figure 12 characterization: the band plus both sweep branches.
#[derive(Debug, Clone, PartialEq)]
pub struct HysteresisCurve {
    /// Extracted thresholds.
    pub band: HysteresisBand,
    /// Downward sweep (healthy → faulty), in sweep order.
    pub down: Vec<HysteresisPoint>,
    /// Upward sweep (faulty → healthy), in sweep order.
    pub up: Vec<HysteresisPoint>,
}

/// Measures the comparator hysteresis of `cfg` by forcing `vout` with an
/// ideal source, sweeping down from `vtest` and back up with DC
/// continuation (so the comparator keeps its state between points).
///
/// # Errors
///
/// Propagates circuit construction or convergence failures.
pub fn characterize_hysteresis(
    cfg: &Variant3,
    process: &CmlProcess,
    points: usize,
) -> Result<HysteresisCurve, Error> {
    characterize_hysteresis_with(cfg, process, points, &DcOptions::default())
}

/// [`characterize_hysteresis`] with explicit DC options, so callers can
/// attach a [`spicier::RunBudget`] (Newton-iteration cap) to the
/// underlying double sweep.
///
/// # Errors
///
/// Propagates circuit construction or convergence failures, including
/// [`spicier::Error::DeadlineExceeded`] when the budget is spent mid-sweep.
pub fn characterize_hysteresis_with(
    cfg: &Variant3,
    process: &CmlProcess,
    points: usize,
    dc: &DcOptions,
) -> Result<HysteresisCurve, Error> {
    // A variant-3 detector on a statically-driven healthy buffer; then the
    // vout node is overridden by an ideal source we sweep.
    let mut b = CmlCircuitBuilder::new(process.clone());
    let input = b.diff("a");
    b.drive_static("a", input, true)?;
    let cell = b.buffer("X1", input)?;
    let det = cfg.attach(&mut b, "DET", cell.output)?;
    let mut nl = b.finish();
    nl.vdc("VSWEEP", det.vout, Netlist::GROUND, cfg.vtest)?;
    let circuit = nl.compile()?;

    let lo = cfg.vtest - 0.45;
    let hi = cfg.vtest;
    let mut values = linspace(hi, lo, points);
    let down_count = values.len();
    values.extend(linspace(lo, hi, points));
    let sols = sweep_vsource(&circuit, "VSWEEP", &values, dc)?;

    let point = |sol: &spicier::analysis::dc::DcSolution, v: f64| HysteresisPoint {
        vout: v,
        vfb: sol.voltage(det.vfb),
        flagp: sol.voltage(det.flagp),
    };
    let down: Vec<HysteresisPoint> = sols[..down_count]
        .iter()
        .zip(&values[..down_count])
        .map(|(s, &v)| point(s, v))
        .collect();
    let up: Vec<HysteresisPoint> = sols[down_count..]
        .iter()
        .zip(&values[down_count..])
        .map(|(s, &v)| point(s, v))
        .collect();

    // The flag mid-level separates pass (near vtest) from fail.
    let flag_mid = cfg.vtest - 0.5 * cfg.cmp_rload * cfg.cmp_itail;
    // Downward branch: the last vout still passing before the flag drops.
    let fail_below = down
        .iter()
        .find(|p| p.flagp < flag_mid)
        .map(|p| p.vout)
        .unwrap_or(lo);
    // Upward branch: the first vout where the flag recovers.
    let pass_above = up
        .iter()
        .find(|p| p.flagp > flag_mid)
        .map(|p| p.vout)
        .unwrap_or(hi);
    Ok(HysteresisCurve {
        band: HysteresisBand {
            fail_below,
            pass_above,
        },
        down,
        up,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_bands() {
        let band = HysteresisBand {
            fail_below: 3.54,
            pass_above: 3.57,
        };
        assert_eq!(band.classify(3.50), DetectorVerdict::Fail);
        assert_eq!(band.classify(3.54), DetectorVerdict::Fail);
        assert_eq!(band.classify(3.55), DetectorVerdict::Marginal);
        assert_eq!(band.classify(3.57), DetectorVerdict::Pass);
        assert_eq!(band.classify(3.65), DetectorVerdict::Pass);
        assert!((band.width() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn hysteresis_exists_and_is_ordered() {
        let curve = characterize_hysteresis(&Variant3::paper(), &CmlProcess::paper(), 90).unwrap();
        let band = curve.band;
        assert!(
            band.fail_below < band.pass_above,
            "expected hysteresis: fail {} / pass {}",
            band.fail_below,
            band.pass_above
        );
        // The band sits below the test rail by roughly the comparator
        // swing, as in the paper's Figure 12 (3.54/3.57 under 3.7 V).
        assert!(band.pass_above < 3.7);
        assert!(band.fail_below > 3.2);
        // A healthy vout passes, a collapsed one fails.
        assert_eq!(band.classify(3.69), DetectorVerdict::Pass);
        assert_eq!(band.classify(3.25), DetectorVerdict::Fail);
    }

    #[test]
    fn hysteresis_sweep_honors_its_budget() {
        let dc = DcOptions {
            budget: spicier::RunBudget::unlimited().with_max_newton_iterations(10),
            ..DcOptions::default()
        };
        let err = characterize_hysteresis_with(&Variant3::paper(), &CmlProcess::paper(), 20, &dc)
            .unwrap_err();
        assert!(err.is_deadline_exceeded(), "{err}");
    }

    #[test]
    fn feedback_snaps_vfb() {
        let curve = characterize_hysteresis(&Variant3::paper(), &CmlProcess::paper(), 90).unwrap();
        // On the downward branch, vfb transitions from low to high.
        let first = curve.down.first().unwrap();
        let last = curve.down.last().unwrap();
        assert!(first.vfb < last.vfb, "vfb should rise as vout falls");
        // The transition is regenerative: the largest single-step vfb jump
        // dwarfs the average step.
        let mut max_jump = 0.0f64;
        for w in curve.down.windows(2) {
            max_jump = max_jump.max((w[1].vfb - w[0].vfb).abs());
        }
        let avg = (last.vfb - first.vfb).abs() / curve.down.len() as f64;
        assert!(max_jump > 5.0 * avg, "jump {max_jump} vs avg {avg}");
    }
}
