//! FIG14 + SHARE45 — shared-detector response vs number of sharing gates
//! (paper Figure 14, §6.4).
//!
//! Shape claims: the fault-free `vout` decreases **linearly** with N
//! (the 40 kΩ bleed resistor dominates the load diode at low current);
//! there is a largest safe N (45 in the paper) beyond which a fault-free
//! group would dip into the hysteresis band; and a faulty member still
//! drags `vout` below the guaranteed-fault threshold under sharing.

use super::report::{print_table, v, write_rows_csv};
use crate::Scale;
use cml_cells::CmlProcess;
use cml_dft::decision::characterize_hysteresis;
use cml_dft::sharing::{SharedDetector, SharingPoint};
use cml_dft::{HysteresisBand, Variant3};
use spicier::analysis::sweep::{par_try_map, TryMapOptions};
use spicier::Error;

/// The full Figure 14 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Result {
    /// Fault-free droop curve.
    pub droop: Vec<SharingPoint>,
    /// Least-squares slope of `vout` vs N, volts per gate.
    pub slope: f64,
    /// Coefficient of determination of the linear fit.
    pub r_squared: f64,
    /// Hysteresis band used for the safe-sharing criterion.
    pub band: HysteresisBand,
    /// Largest N whose fault-free `vout` clears `band.pass_above`.
    pub max_safe: Option<usize>,
    /// `vout` with one 2 kΩ-pipe faulty member in a group of
    /// `min(max_safe, probe size)` gates.
    pub faulty_vout: f64,
    /// Whether the faulty reading is below `band.fail_below` (detection
    /// survives sharing).
    pub fault_detected: bool,
}

fn linear_fit(points: &[SharingPoint]) -> (f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.n as f64).sum();
    let sy: f64 = points.iter().map(|p| p.vout).sum();
    let sxx: f64 = points.iter().map(|p| (p.n as f64).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| p.n as f64 * p.vout).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    let mean = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.vout - mean).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.vout - (slope * p.n as f64 + intercept)).powi(2))
        .sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    (slope, r2)
}

/// One analysis of the sharing experiment. The droop points are
/// independent DC solves. The verdict is one chain: the hysteresis band,
/// the max-safe binary search that needs the band, and the faulty probe
/// sized by its answer.
#[derive(Debug, Clone, Copy)]
enum Part {
    Droop(usize),
    Verdict,
}

/// What a [`Part`] measured.
enum Done {
    Droop(SharingPoint),
    Verdict {
        band: HysteresisBand,
        max_safe: Option<usize>,
        faulty: SharingPoint,
    },
}

/// The verdict chain: hysteresis band, then the largest safe N, then one
/// 2 kΩ-pipe member in a group of `min(max_safe, 16)` (at least 2) gates.
fn verdict(
    exp: &SharedDetector,
    hyst_points: usize,
    n_cap: usize,
) -> Result<(HysteresisBand, Option<usize>, SharingPoint), Error> {
    let band = characterize_hysteresis(&exp.config, &exp.process, hyst_points)?.band;
    let max_safe = exp.max_safe_sharing(&band, n_cap)?;
    let probe_n = max_safe.unwrap_or(1).clamp(2, 16);
    let faulty = exp.measure(probe_n, Some((probe_n / 2, 2.0e3)))?;
    Ok((band, max_safe, faulty))
}

/// Runs the sharing experiment: the droop points and the verdict chain
/// as one task list on the sweep workers.
///
/// # Errors
///
/// Propagates construction/convergence failures: the first in the order
/// droop points (by N), then the verdict chain.
pub fn run(scale: Scale) -> Result<Fig14Result, Error> {
    let exp = SharedDetector::new(Variant3::paper(), CmlProcess::paper());
    let (ns, n_cap, hyst_points) = match scale {
        Scale::Full => ((1..=60).step_by(3).collect::<Vec<usize>>(), 64, 120),
        Scale::Quick => (vec![1, 4, 8, 12], 16, 60),
    };
    // Workers take parts from the end of the list, so the verdict, the
    // longest chain, starts first and the largest N next.
    let mut parts: Vec<Part> = ns.iter().map(|&n| Part::Droop(n)).collect();
    parts.push(Part::Verdict);
    let (slots, report) = par_try_map(parts, &TryMapOptions::default(), |part| match *part {
        Part::Droop(n) => exp.measure(n, None).map(Done::Droop),
        Part::Verdict => {
            verdict(&exp, hyst_points, n_cap).map(|(band, max_safe, faulty)| Done::Verdict {
                band,
                max_safe,
                faulty,
            })
        }
    });
    report.into_result()?;
    let mut droop = Vec::with_capacity(ns.len());
    let mut chain = None;
    for done in slots.into_iter().flatten() {
        match done {
            Done::Droop(point) => droop.push(point),
            Done::Verdict {
                band,
                max_safe,
                faulty,
            } => chain = Some((band, max_safe, faulty)),
        }
    }
    let (band, max_safe, faulty) = chain.expect("every part succeeded");
    // The droop is linear only while the shared comparator stays in the
    // pass state; once vout dips into the hysteresis band the comparator
    // flips and its input bias current is re-routed (visible as a kink in
    // the curve, and the physical reason a safe maximum N exists). Fit the
    // pass-state prefix: vfb below the midpoint of its observed range.
    let vfb_lo = droop.iter().map(|p| p.vfb).fold(f64::INFINITY, f64::min);
    let vfb_hi = droop
        .iter()
        .map(|p| p.vfb)
        .fold(f64::NEG_INFINITY, f64::max);
    let vfb_mid = 0.5 * (vfb_lo + vfb_hi);
    let pass_prefix: Vec<SharingPoint> = droop
        .iter()
        .take_while(|p| p.vfb < vfb_mid)
        .copied()
        .collect();
    let fit_points = if pass_prefix.len() >= 3 {
        &pass_prefix[..]
    } else {
        &droop[..]
    };
    let (slope, r_squared) = linear_fit(fit_points);
    Ok(Fig14Result {
        droop,
        slope,
        r_squared,
        band,
        max_safe,
        faulty_vout: faulty.vout,
        fault_detected: faulty.vout <= band.fail_below,
    })
}

/// Runs and prints the paper-shaped report.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn execute(scale: Scale) -> Result<(), Error> {
    let r = run(scale)?;
    let rows: Vec<Vec<String>> = r
        .droop
        .iter()
        .map(|p| vec![p.n.to_string(), v(p.vout), v(p.vfb)])
        .collect();
    print_table(
        "FIG14: fault-free shared-detector vout vs gates sharing the load",
        &["N", "vout (V)", "vfb (V)"],
        &rows,
    );
    write_rows_csv("fig14", &["n", "vout", "vfb"], &rows);
    println!(
        "  linear droop: slope = {:.2} mV/gate, R² = {:.4} (paper: linear, R0-dominated)",
        r.slope * 1e3,
        r.r_squared
    );
    println!(
        "  hysteresis band: fail ≤ {} V, pass ≥ {} V",
        v(r.band.fail_below),
        v(r.band.pass_above)
    );
    match r.max_safe {
        Some(n) => println!("  max safe sharing N = {n} (paper: 45)"),
        None => println!("  max safe sharing: none (N = 1 already dips into the band)"),
    }
    println!(
        "  one faulty member under sharing: vout = {} V → detected = {} (paper: 3.41 V, detected)",
        v(r.faulty_vout),
        r.fault_detected
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn droop_is_linear_and_fault_detection_survives_sharing() {
        let r = run(Scale::Quick).unwrap();
        assert!(r.slope < 0.0, "vout must droop, slope {}", r.slope);
        assert!(
            r.r_squared > 0.98,
            "droop should be linear, R² = {}",
            r.r_squared
        );
        assert!(
            r.fault_detected,
            "faulty vout {} vs band {:?}",
            r.faulty_vout, r.band
        );
    }

    #[test]
    fn pooled_run_equals_the_serial_study() {
        let r = run(Scale::Quick).unwrap();
        let exp = SharedDetector::new(Variant3::paper(), CmlProcess::paper());
        let droop: Vec<SharingPoint> = [1, 4, 8, 12]
            .iter()
            .map(|&n| exp.measure(n, None).unwrap())
            .collect();
        let (band, max_safe, faulty) = verdict(&exp, 60, 16).unwrap();
        assert_eq!(r.droop, droop);
        assert_eq!(r.band, band);
        assert_eq!(r.max_safe, max_safe);
        assert_eq!(r.faulty_vout.to_bits(), faulty.vout.to_bits());
    }

    #[test]
    fn a_safe_sharing_count_exists() {
        let r = run(Scale::Quick).unwrap();
        let n = r.max_safe.expect("N = 1 must be safe");
        assert!(n >= 1);
    }
}
