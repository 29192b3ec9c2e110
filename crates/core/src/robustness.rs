//! Robustness of the DFT scheme across process variation and cell
//! speed/power settings.
//!
//! §6.3 cautions that "the ideal load circuit parameters may need to be
//! adjusted as a function of the cells speed/power combination which is
//! determined by the gate current source". This module quantifies that:
//!
//! * the speed/power sweep of [`robustness_study`] steps the gate tail
//!   current (the paper's speed/power knob) and reports the detector's
//!   clean/faulty margins;
//! * its Monte-Carlo study perturbs process parameters (±σ on
//!   resistors, capacitors, saturation current) and reports how often a
//!   fixed detector design still classifies a healthy gate as healthy
//!   and a defective gate as defective.

use crate::decision::characterize_hysteresis;
use crate::detector::Variant3;
use cml_cells::{CmlCircuitBuilder, CmlProcess};
use faults::Defect;
use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::analysis::sweep::{par_try_map, SweepFailure, SweepReport, TryMapOptions};
use spicier::Error;
use xrand::StdRng;

/// Margins of a variant-3 detector at one operating condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorMargins {
    /// Gate tail current, amperes.
    pub itail: f64,
    /// Fault-free DC `vout`, volts.
    pub vout_clean: f64,
    /// `vout` with a 2 kΩ pipe on the monitored gate's current source.
    pub vout_faulty: f64,
    /// `vout_clean − pass_above`: how much headroom a healthy gate keeps
    /// above the guaranteed-pass threshold (negative = misclassified).
    pub clean_headroom: f64,
    /// `fail_below − vout_faulty`: how far the faulty reading sits below
    /// the guaranteed-fail threshold (negative = fault escapes).
    pub fault_margin: f64,
    /// Whether the DC recovery ladder had to escalate past plain Newton
    /// for either operating point — a hint the corner is numerically
    /// marginal even though it converged.
    pub escalated: bool,
}

impl DetectorMargins {
    /// Both classifications are unambiguous.
    pub fn classifies_correctly(&self) -> bool {
        self.clean_headroom > 0.0 && self.fault_margin > 0.0
    }
}

fn margins_for(
    process: &CmlProcess,
    config: &Variant3,
    pipe_ohms: f64,
) -> Result<DetectorMargins, Error> {
    // Returns (vout, whether the DC ladder escalated past plain Newton).
    let vout_at = |pipe: Option<f64>| -> Result<(f64, bool), Error> {
        let mut b = CmlCircuitBuilder::new(process.clone());
        let input = b.diff("a");
        b.drive_static("a", input, true)?;
        let cell = b.buffer("DUT", input)?;
        let det = config.attach(&mut b, "DET", cell.output)?;
        let mut nl = b.finish();
        if let Some(ohms) = pipe {
            Defect::pipe("DUT.Q3", ohms).inject(&mut nl)?;
        }
        let circuit = nl.compile()?;
        let op = operating_point(&circuit, &DcOptions::default())?;
        Ok((op.voltage(det.vout), op.report().escalated()))
    };
    let (vout_clean, clean_escalated) = vout_at(None)?;
    let (vout_faulty, faulty_escalated) = vout_at(Some(pipe_ohms))?;
    let band = characterize_hysteresis(config, process, 80)?.band;
    Ok(DetectorMargins {
        itail: process.itail,
        vout_clean,
        vout_faulty,
        clean_headroom: vout_clean - band.pass_above,
        fault_margin: band.fail_below - vout_faulty,
        escalated: clean_escalated || faulty_escalated,
    })
}

/// Parameters of the Monte-Carlo process perturbation (relative 1σ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Resistor value variation (affects `rload` via the swing knob).
    pub resistor_sigma: f64,
    /// Capacitance variation (wiring).
    pub cap_sigma: f64,
    /// Saturation-current variation (log-space; shifts VBE).
    pub is_sigma: f64,
    /// Tail-current variation.
    pub itail_sigma: f64,
}

impl Default for VariationModel {
    fn default() -> Self {
        Self {
            resistor_sigma: 0.05,
            cap_sigma: 0.10,
            is_sigma: 0.20,
            itail_sigma: 0.05,
        }
    }
}

/// Result of a Monte-Carlo robustness run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    /// Samples evaluated.
    pub samples: usize,
    /// Samples where both classifications were correct.
    pub passing: usize,
    /// Worst observed clean headroom, volts.
    pub worst_clean_headroom: f64,
    /// Worst observed fault margin, volts.
    pub worst_fault_margin: f64,
    /// Per-sample margins for further analysis.
    pub margins: Vec<DetectorMargins>,
    /// Samples that produced no margins at all: `(sample index, error)`.
    /// These count against the yield but are *reported*, not silently
    /// folded into `passing`'s complement.
    pub failed_samples: Vec<(usize, String)>,
    /// Samples where the DC recovery ladder escalated past plain Newton
    /// (converged, but only via a homotopy rung).
    pub escalated: usize,
}

impl MonteCarloReport {
    /// Yield of the fixed detector design over process variation.
    pub fn yield_fraction(&self) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        self.passing as f64 / self.samples as f64
    }

    /// One-line health summary of the study itself (distinct from the
    /// yield, which is about the detector design).
    pub fn health_summary(&self) -> String {
        format!(
            "{}/{} samples simulated ({} escalated, {} failed)",
            self.samples - self.failed_samples.len(),
            self.samples,
            self.escalated,
            self.failed_samples.len()
        )
    }
}

/// Uniform ±kσ perturbation helper (uniform keeps the study bounded and
/// reproducible; the tails of a Gaussian add nothing to a shape claim).
fn perturb(rng: &mut StdRng, nominal: f64, sigma: f64) -> f64 {
    let k = rng.gen_range(-1.732..1.732); // uniform with unit variance·σ
    nominal * (1.0 + sigma * k)
}

/// Draws a perturbed process.
pub fn sample_process(rng: &mut StdRng, variation: &VariationModel) -> CmlProcess {
    let mut p = CmlProcess::paper();
    // Swing = itail·rload: perturb both knobs.
    p.itail = perturb(rng, p.itail, variation.itail_sigma);
    p.swing = perturb(rng, p.swing, variation.resistor_sigma);
    p.cwire = perturb(rng, p.cwire, variation.cap_sigma);
    p.r_shift = perturb(rng, p.r_shift, variation.resistor_sigma);
    // Log-ish Is variation (shifts VBE by vt·ln(1+δ)).
    p.npn.is = perturb(rng, p.npn.is, variation.is_sigma);
    p
}

/// Per-sample RNG seed: a SplitMix64 scramble of `(seed, k)`. Pinning the
/// stream to the **sample index** — not to whichever worker happens to
/// draw the sample — is what makes the study's output independent of the
/// worker count.
fn sample_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs both robustness studies for a fixed detector design as one task
/// list on the sweep workers:
///
/// * the speed/power sweep: the classification margins at each gate tail
///   current in `itails`;
/// * the Monte-Carlo study over `samples` process draws. It is
///   fault-isolated: a sample that fails to converge counts against the
///   yield and is recorded in [`MonteCarloReport::failed_samples`] with
///   its error text — it never aborts the study. Samples that only
///   converged via a recovery rung are tallied in
///   [`MonteCarloReport::escalated`].
///
/// `opts` sets a per-corner wall-clock deadline
/// ([`TryMapOptions::corner_deadline`], surfaced for a sample as a
/// timeout in `failed_samples`) and a worker-count cap. Each sample's
/// process draw comes from its own RNG seeded by `(seed, sample index)`,
/// so both results are **identical for any worker count** — the
/// determinism regression tests pin [`TryMapOptions::max_workers`] to 1
/// and 4 and compare them.
///
/// # Errors
///
/// The first failed speed/power point in `itails` order.
pub fn robustness_study(
    itails: &[f64],
    samples: usize,
    seed: u64,
    variation: &VariationModel,
    config: &Variant3,
    pipe_ohms: f64,
    opts: &TryMapOptions,
) -> Result<(Vec<DetectorMargins>, MonteCarloReport), Error> {
    let process_of = |&corner: &Corner| match corner {
        Corner::Itail(itail) => CmlProcess::paper().with_itail(itail),
        Corner::Sample(k) => {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed, k as u64));
            sample_process(&mut rng, variation)
        }
    };
    let corners: Vec<Corner> = (itails.iter().map(|&itail| Corner::Itail(itail)))
        .chain((0..samples).map(Corner::Sample))
        .collect();
    let (mut slots, report) = par_try_map(corners, opts, |corner| {
        margins_for(&process_of(corner), config, pipe_ohms)
    });
    let n_itails = itails.len();
    let (fatal, sampled): (Vec<_>, Vec<_>) = report
        .failures
        .into_iter()
        .partition(|f| f.index < n_itails);
    SweepReport {
        failures: fatal,
        ..report
    }
    .into_result()?;
    let drawn = slots.split_off(n_itails);
    let speed_power = slots.into_iter().flatten().collect();

    // Fold in slot (= sample) order so the min-reductions and counters are
    // reproducible bit-for-bit regardless of completion order.
    let mut margins = Vec::with_capacity(samples);
    let mut passing = 0usize;
    let mut escalated = 0usize;
    let mut worst_clean = f64::INFINITY;
    let mut worst_fault = f64::INFINITY;
    for m in drawn.into_iter().flatten() {
        if m.classifies_correctly() {
            passing += 1;
        }
        if m.escalated {
            escalated += 1;
        }
        worst_clean = worst_clean.min(m.clean_headroom);
        worst_fault = worst_fault.min(m.fault_margin);
        margins.push(m);
    }
    // Non-convergent (or timed-out) corners: counted as failing, but kept
    // on the record so a low yield can be told apart from a broken study.
    let failed_samples: Vec<(usize, String)> = sampled
        .iter()
        .map(|f| {
            let text = match &f.failure {
                SweepFailure::Solver(e) => e.to_string(),
                other => other.to_string(),
            };
            (f.index - n_itails, text)
        })
        .collect();

    let monte_carlo = MonteCarloReport {
        samples,
        passing,
        worst_clean_headroom: worst_clean,
        worst_fault_margin: worst_fault,
        margins,
        failed_samples,
        escalated,
    };
    Ok((speed_power, monte_carlo))
}

/// One corner of [`robustness_study`]: a speed/power setting or a
/// Monte-Carlo draw.
#[derive(Debug, Clone, Copy)]
enum Corner {
    Itail(f64),
    Sample(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper design's study with a 2 kΩ pipe and default options.
    fn study(
        itails: &[f64],
        samples: usize,
        seed: u64,
    ) -> (Vec<DetectorMargins>, MonteCarloReport) {
        let variation = VariationModel::default();
        let opts = TryMapOptions::default();
        robustness_study(
            itails,
            samples,
            seed,
            &variation,
            &Variant3::paper(),
            2.0e3,
            &opts,
        )
        .unwrap()
    }

    #[test]
    fn nominal_design_classifies_correctly() {
        let m = margins_for(&CmlProcess::paper(), &Variant3::paper(), 2.0e3).unwrap();
        assert!(
            m.classifies_correctly(),
            "nominal margins: clean {:.3}, fault {:.3}",
            m.clean_headroom,
            m.fault_margin
        );
    }

    #[test]
    fn speed_power_sweep_shows_the_tuning_need() {
        // A detector designed for 0.4 mA gates: margins move as the gate
        // current scales — the §6.3 adjustment warning.
        let (margins, _) = study(&[0.2e-3, 0.4e-3, 0.8e-3], 0, 0);
        assert_eq!(margins.len(), 3);
        // Nominal works.
        assert!(margins[1].classifies_correctly());
        // Fault margin stays positive everywhere (the fault is gross)...
        for m in &margins {
            assert!(m.fault_margin > 0.0, "itail {}: {m:?}", m.itail);
        }
        // ...but the clean/faulty separation visibly depends on itail.
        let sep: Vec<f64> = margins
            .iter()
            .map(|m| m.vout_clean - m.vout_faulty)
            .collect();
        let spread = sep.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - sep.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.02, "separation spread {spread}");
    }

    #[test]
    fn monte_carlo_yield_is_high_and_deterministic() {
        let (_, report) = study(&[], 12, 42);
        assert_eq!(report.samples, 12);
        assert!(
            report.yield_fraction() >= 0.75,
            "yield {} (margins: {:?})",
            report.yield_fraction(),
            report.margins
        );
        // Deterministic for a fixed seed.
        let (_, again) = study(&[], 12, 42);
        assert_eq!(report.passing, again.passing);
        assert_eq!(report.margins.len(), again.margins.len());
        // Health bookkeeping: every sample is accounted for, and the
        // nominal-ish corners should all simulate.
        assert_eq!(report.margins.len() + report.failed_samples.len(), 12);
        assert!(
            report.failed_samples.is_empty(),
            "{:?}",
            report.failed_samples
        );
        assert_eq!(report.escalated, again.escalated);
        assert!(
            report.health_summary().contains("12/12"),
            "{}",
            report.health_summary()
        );
    }

    #[test]
    fn study_is_identical_for_any_worker_count() {
        // The determinism regression: per-sample RNG is pinned to the
        // sample index, so 1 worker and 4 workers must agree bit-for-bit.
        let run = |workers: usize| {
            robustness_study(
                &[0.3e-3, 0.5e-3],
                6,
                7,
                &VariationModel::default(),
                &Variant3::paper(),
                2.0e3,
                &TryMapOptions {
                    max_workers: Some(workers),
                    ..TryMapOptions::default()
                },
            )
            .unwrap()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn perturbation_is_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let var = VariationModel::default();
        for _ in 0..100 {
            let p = sample_process(&mut rng, &var);
            assert!((p.itail - 0.4e-3).abs() < 0.4e-3 * 0.05 * 1.8);
            assert!((p.swing - 0.25).abs() < 0.25 * 0.05 * 1.8);
            assert!(p.npn.is > 0.0);
        }
    }
}
