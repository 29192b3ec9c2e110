//! THRESH1/THRESH2 — smallest detectable amplitude per variant
//! (§6.1: 0.57 V for variant 1; §6.2: 0.35 V for variant 2 at
//! `vtest = 3.7 V`).

use super::common::try_map_options;
use super::report::{print_table, v, write_rows_csv};
use crate::Scale;
use cml_dft::threshold::{detectable_amplitude, pipe_sweep, AnyDetector, SweepOptions};
use cml_dft::{DetectorLoad, Variant1, Variant2};
use spicier::Error;

/// Detectability summary for both variants.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdResult {
    /// Variant-1 sweep points `(pipe, amplitude, vout)`.
    pub v1_points: Vec<cml_dft::threshold::SweepPoint>,
    /// Variant-2 sweep points.
    pub v2_points: Vec<cml_dft::threshold::SweepPoint>,
    /// Smallest detectable amplitude, variant 1 (paper: 0.57 V).
    pub v1_threshold: Option<f64>,
    /// Smallest detectable amplitude, variant 2 (paper: 0.35 V).
    pub v2_threshold: Option<f64>,
}

/// Decision margin: a reading counts as detected when `vout` drops at
/// least this far below the fault-free baseline.
pub const MIN_DROP: f64 = 0.15;

/// Runs both pipe sweeps, sharing their bare chains.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run(scale: Scale) -> Result<ThresholdResult, Error> {
    let (pipes, opts): (Vec<f64>, SweepOptions) = match scale {
        Scale::Full => (
            vec![
                12.0e3, 10.0e3, 8.0e3, 6.0e3, 5.0e3, 4.0e3, 3.0e3, 2.5e3, 2.0e3, 1.5e3, 1.0e3,
            ],
            SweepOptions::default(),
        ),
        Scale::Quick => (
            vec![8.0e3, 5.0e3, 3.0e3, 2.0e3, 1.0e3],
            SweepOptions {
                freq: 100.0e6,
                t_stop: 40.0e-9,
            },
        ),
    };
    let v1 = AnyDetector::V1(Variant1::new(DetectorLoad::diode_cap(1.0e-12)));
    let v2 = AnyDetector::V2(Variant2::new(DetectorLoad::diode_cap(1.0e-12), 3.7));
    let mut sweeps = pipe_sweep(&[v1, v2], &pipes, &opts, &try_map_options())?;
    let v2_points = sweeps.pop().expect("one sweep per detector");
    let v1_points = sweeps.pop().expect("one sweep per detector");
    let v1_threshold = detectable_amplitude(&v1_points, MIN_DROP);
    let v2_threshold = detectable_amplitude(&v2_points, MIN_DROP);
    Ok(ThresholdResult {
        v1_points,
        v2_points,
        v1_threshold,
        v2_threshold,
    })
}

/// Runs and prints the paper-shaped report.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn execute(scale: Scale) -> Result<(), Error> {
    let r = run(scale)?;
    let mut rows = Vec::new();
    for (variant, points) in [("V1", &r.v1_points), ("V2", &r.v2_points)] {
        for p in points {
            rows.push(vec![
                variant.to_string(),
                if p.pipe_ohms.is_finite() {
                    format!("{:.0}", p.pipe_ohms)
                } else {
                    "fault-free".to_string()
                },
                v(p.amplitude),
                v(p.vout),
            ]);
        }
    }
    print_table(
        "THRESH: pipe sweep per detector variant",
        &["variant", "pipe (Ω)", "amplitude (V)", "vout (V)"],
        &rows,
    );
    write_rows_csv(
        "thresholds",
        &["variant", "pipe", "amplitude", "vout"],
        &rows,
    );
    let fmt = |t: Option<f64>| t.map(|x| format!("{x:.2} V")).unwrap_or("-".to_string());
    println!(
        "  variant 1 smallest detectable amplitude: {} (paper: 0.57 V)",
        fmt(r.v1_threshold)
    );
    println!(
        "  variant 2 smallest detectable amplitude: {} (paper: 0.35 V)",
        fmt(r.v2_threshold)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_order_matches_paper() {
        let r = run(Scale::Quick).unwrap();
        let a1 = r.v1_threshold.expect("v1 detects severe pipes");
        let a2 = r.v2_threshold.expect("v2 detects mild pipes");
        assert!(a2 < a1, "v2 {a2:.2} must beat v1 {a1:.2}");
    }
}
