//! Load sharing (§6.4, Figure 14): one load cell and comparator monitoring
//! many gates.
//!
//! Each monitored gate contributes its detector pair's sub-threshold
//! leakage into the shared load; because the 40 kΩ bleed resistor
//! dominates the load diode at low current, the fault-free `vout` droops
//! **linearly** with the number of sharing gates. The safe maximum is the
//! largest N whose fault-free `vout` still clears the comparator's
//! `pass_above` threshold (45 gates in the paper).

use crate::decision::HysteresisBand;
use crate::detector::{Variant3, Variant3Handle};
use cml_cells::{CmlCircuitBuilder, CmlProcess};
use faults::Defect;
use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::Error;

/// One point of the Figure 14 sharing curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingPoint {
    /// Number of gates sharing the load cell.
    pub n: usize,
    /// Settled detector output, volts.
    pub vout: f64,
    /// Comparator feedback node, volts.
    pub vfb: f64,
    /// Whether the DC recovery ladder had to escalate past plain Newton —
    /// useful for spotting the N where the shared load goes marginal
    /// before it fails outright.
    pub escalated: bool,
}

/// The load-sharing experiment driver.
#[derive(Debug, Clone)]
pub struct SharedDetector {
    /// Detector configuration.
    pub config: Variant3,
    /// Process of the monitored gates.
    pub process: CmlProcess,
}

impl SharedDetector {
    /// Creates the experiment with paper defaults.
    pub fn new(config: Variant3, process: CmlProcess) -> Self {
        Self { config, process }
    }

    /// Builds a chain of `n` statically-driven buffers with one shared
    /// variant-3 detector, optionally planting a pipe on buffer
    /// `fault_at`, and returns the DC-settled readings.
    ///
    /// DC is faithful here: §6.6 notes that pipe defects on the current
    /// source "are fully detectable with DC test", and a static input
    /// exercises exactly the worst-case (one output low per gate) leakage
    /// into the shared load.
    ///
    /// # Errors
    ///
    /// Propagates construction and convergence failures.
    pub fn measure(&self, n: usize, fault_at: Option<(usize, f64)>) -> Result<SharingPoint, Error> {
        let (handle, circuit) = self.build(n, fault_at)?;
        let op = operating_point(&circuit, &DcOptions::default())?;
        Ok(SharingPoint {
            n,
            vout: op.voltage(handle.vout),
            vfb: op.voltage(handle.vfb),
            escalated: op.report().escalated(),
        })
    }

    /// Builds the shared-detector circuit (exposed for transient studies).
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn build(
        &self,
        n: usize,
        fault_at: Option<(usize, f64)>,
    ) -> Result<(Variant3Handle, spicier::Circuit), Error> {
        let mut b = CmlCircuitBuilder::new(self.process.clone());
        let input = b.diff("a");
        b.drive_static("a", input, true)?;
        let names: Vec<String> = (0..n).map(|k| format!("B{k}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let chain = b.buffer_chain(&name_refs, input)?;
        let pairs: Vec<_> = chain.cells.iter().map(|c| c.output).collect();
        let handle = self.config.attach_shared(&mut b, "SHD", &pairs)?;
        let mut nl = b.finish();
        if let Some((at, ohms)) = fault_at {
            Defect::pipe(&format!("B{at}.Q3"), ohms).inject(&mut nl)?;
        }
        let circuit = nl.compile()?;
        Ok((handle, circuit))
    }

    /// The largest N whose fault-free `vout` still clears
    /// `band.pass_above` — the paper's safe-sharing criterion ("vout
    /// exceeds the highest voltage of the hysteresis curve, which is
    /// 3.57 V"; their answer: 45 buffers). Returns `None` when even N = 1
    /// fails.
    ///
    /// # Errors
    ///
    /// Propagates failures from any point.
    pub fn max_safe_sharing(
        &self,
        band: &HysteresisBand,
        n_max: usize,
    ) -> Result<Option<usize>, Error> {
        let mut best = None;
        // The droop is monotone, so binary search over N.
        let (mut lo, mut hi) = (1usize, n_max);
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let point = self.measure(mid, None)?;
            if point.vout >= band.pass_above {
                best = Some(mid);
                lo = mid + 1;
            } else {
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment() -> SharedDetector {
        SharedDetector::new(Variant3::paper(), CmlProcess::paper())
    }

    #[test]
    fn vout_droops_monotonically_with_n() {
        let exp = experiment();
        let points: Vec<SharingPoint> = [1, 5, 10, 20]
            .iter()
            .map(|&n| exp.measure(n, None).unwrap())
            .collect();
        for w in points.windows(2) {
            assert!(
                w[1].vout < w[0].vout + 1e-6,
                "droop not monotone: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // And the droop is roughly linear: compare per-gate increments.
        let d1 = (points[0].vout - points[1].vout) / 4.0;
        let d2 = (points[2].vout - points[3].vout) / 10.0;
        assert!(
            (d1 - d2).abs() < 0.5 * d1.abs().max(d2.abs()),
            "per-gate droop {d1:.4} vs {d2:.4} — not linear-ish"
        );
    }

    #[test]
    fn rungs_a_singular_matrix_stops_keep_their_iterations() {
        // At N = 38 plain Newton's sixth iterate has a singular Jacobian:
        // a pivot that cancellation leaves far under ε of the magnitude
        // its column's entries would reach uncancelled. Plain Newton dies
        // on it, well before its iteration cap; gmin stepping then
        // converges.
        let (_, circuit) = experiment().build(38, None).unwrap();
        let options = DcOptions::default();
        let op = operating_point(&circuit, &options).unwrap();
        let report = op.report();
        let first = report.attempts[0];
        assert!(
            !first.converged && first.iterations > 0 && first.iterations < options.max_iterations,
            "{}",
            report.summary()
        );
        assert!(report.attempts.len() > 1, "{}", report.summary());
        // Each Newton iteration does one LU solve, and none of these
        // solves needs refinement.
        let t = op.telemetry();
        assert_eq!(
            t.newton_iterations,
            t.lu.solves as u64,
            "{}",
            report.summary()
        );
    }

    #[test]
    fn faulty_member_pulls_vout_down_under_sharing() {
        let exp = experiment();
        let clean = exp.measure(8, None).unwrap();
        let faulty = exp.measure(8, Some((3, 2.0e3))).unwrap();
        assert!(
            faulty.vout < clean.vout - 0.05,
            "clean {:.3} vs faulty {:.3}",
            clean.vout,
            faulty.vout
        );
    }

    #[test]
    fn max_safe_sharing_is_found() {
        let exp = experiment();
        // Use a band derived from the sharing droop itself: something the
        // N=1 case clears comfortably.
        let p1 = exp.measure(1, None).unwrap();
        let band = HysteresisBand {
            fail_below: p1.vout - 0.10,
            pass_above: p1.vout - 0.03,
        };
        let n = exp.max_safe_sharing(&band, 64).unwrap();
        let n = n.expect("N=1 clears by construction");
        assert!(n >= 1);
        // One more gate must violate the criterion (unless we hit the cap).
        if n < 64 {
            let over = exp.measure(n + 1, None).unwrap();
            assert!(over.vout < band.pass_above);
        }
    }
}
