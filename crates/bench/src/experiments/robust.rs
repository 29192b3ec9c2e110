//! ROBUST — §6.3's tuning caveat, quantified: the detector's margins as
//! the monitored gates' speed/power setting changes, and the Monte-Carlo
//! yield of one fixed detector design across process variation.

use super::report::{print_table, v, write_rows_csv};
use crate::Scale;
use cml_dft::robustness::{robustness_study, DetectorMargins, MonteCarloReport, VariationModel};
use cml_dft::Variant3;
use spicier::analysis::sweep::TryMapOptions;
use spicier::Error;

/// Pipe severity used throughout the study.
pub const PIPE_OHMS: f64 = 2.0e3;

/// Full result.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustResult {
    /// Speed/power sweep margins.
    pub speed_power: Vec<DetectorMargins>,
    /// Monte-Carlo report.
    pub monte_carlo: MonteCarloReport,
}

/// Runs both studies as one task list on the sweep workers.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run(scale: Scale) -> Result<RobustResult, Error> {
    let (itails, samples): (Vec<f64>, usize) = match scale {
        Scale::Full => (vec![0.1e-3, 0.2e-3, 0.3e-3, 0.4e-3, 0.6e-3, 0.8e-3], 40),
        Scale::Quick => (vec![0.2e-3, 0.4e-3, 0.8e-3], 8),
    };
    let config = Variant3::paper();
    let (speed_power, monte_carlo) = robustness_study(
        &itails,
        samples,
        0xACE1,
        &VariationModel::default(),
        &config,
        PIPE_OHMS,
        &TryMapOptions::default(),
    )?;
    Ok(RobustResult {
        speed_power,
        monte_carlo,
    })
}

/// Runs and prints the report.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn execute(scale: Scale) -> Result<(), Error> {
    let r = run(scale)?;
    let rows: Vec<Vec<String>> = r
        .speed_power
        .iter()
        .map(|m| {
            vec![
                format!("{:.1}", m.itail * 1e3),
                v(m.vout_clean),
                v(m.vout_faulty),
                v(m.clean_headroom),
                v(m.fault_margin),
                if m.classifies_correctly() {
                    "ok"
                } else {
                    "FAILS"
                }
                .to_string(),
                if m.escalated { "escalated" } else { "plain" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "ROBUST: fixed variant-3 detector vs gate speed/power (§6.3 caveat)",
        &[
            "itail (mA)",
            "vout clean",
            "vout faulty",
            "clean headroom",
            "fault margin",
            "verdict",
            "dc ladder",
        ],
        &rows,
    );
    write_rows_csv(
        "robust_speed_power",
        &[
            "itail_ma",
            "clean",
            "faulty",
            "headroom",
            "margin",
            "ok",
            "dc_ladder",
        ],
        &rows,
    );
    println!(
        "  Monte-Carlo ({} samples, ±5% R, ±10% C, ±20% Is, ±5% Itail): \
         yield {:.0}%, worst clean headroom {} V, worst fault margin {} V",
        r.monte_carlo.samples,
        100.0 * r.monte_carlo.yield_fraction(),
        v(r.monte_carlo.worst_clean_headroom),
        v(r.monte_carlo.worst_fault_margin)
    );
    println!("  Monte-Carlo health: {}", r.monte_carlo.health_summary());
    for (k, err) in &r.monte_carlo.failed_samples {
        eprintln!("  [warn] sample {k} failed: {err}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_passes_and_yield_is_usable() {
        let r = run(Scale::Quick).unwrap();
        let nominal = r
            .speed_power
            .iter()
            .find(|m| (m.itail - 0.4e-3).abs() < 1e-9)
            .expect("nominal itail in sweep");
        assert!(nominal.classifies_correctly());
        assert!(r.monte_carlo.yield_fraction() >= 0.7);
    }
}
