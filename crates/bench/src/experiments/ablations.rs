//! ABLATE — design-choice ablations called out in DESIGN.md §6:
//!
//! * detector load: diode–capacitor vs resistor–capacitor (§6.1 claims the
//!   diode settles much faster);
//! * the R0 bleed value around the paper's 40 kΩ (§6.3: trade-off between
//!   relieving the comparator bias droop and keeping fault sensitivity);
//! * comparator positive feedback vs a fixed reference (§6.3: feedback
//!   recovers the noise margin a fixed mid reference halves);
//! * junction grading: constant vs graded depletion capacitances.
//!
//! [`run`] runs every analysis of the four as one task list on the sweep
//! workers.

use super::common::try_map_options;
use super::fig7::detector_response;
use super::report::{print_table, v, write_rows_csv};
use crate::Scale;
use cml_cells::{CmlCircuitBuilder, CmlProcess};
use cml_dft::{DetectorLoad, Variant3};
use faults::Defect;
use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::analysis::sweep::par_try_map;
use spicier::Error;

/// Load-style ablation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadAblation {
    /// Diode-load time to stability, seconds.
    pub diode_tstab: f64,
    /// 160 kΩ-resistor-load time to stability, seconds.
    pub resistor_tstab: f64,
}

/// The two detector loads of the load ablation (same fault, same cap) and
/// the simulated span.
fn loads(scale: Scale) -> ([DetectorLoad; 2], f64) {
    let (cap, t_stop) = match scale {
        Scale::Full => (10.0e-12, 1.5e-6),
        Scale::Quick => (1.0e-12, 200.0e-9),
    };
    let loads = [
        DetectorLoad::diode_cap(cap),
        DetectorLoad::resistor_cap(160.0e3, cap),
    ];
    (loads, t_stop)
}

/// Time to stability of the detector with `load`.
fn load_tstab(load: DetectorLoad, t_stop: f64) -> Result<f64, Error> {
    // A *mild* fault (2.5 kΩ pipe → µA-scale detector currents) is where
    // the load choice matters: the diode's low dynamic resistance at high
    // current snaps vout down quickly, while the 160 kΩ resistor must
    // discharge the capacitor with its fixed RC (160 µs·pF scale).
    let pipe = 2.5e3;
    let r = detector_response(pipe, load, 100.0e6, t_stop, None)?;
    // Band-entry settling; a run that never settles scores the full span.
    Ok(r.settling.map_or(t_stop, |s| s.t_settle))
}

/// One row of the R0 ablation: fault-free vs faulty `vout` margins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct R0Point {
    /// Bleed resistance, ohms.
    pub r0: f64,
    /// Fault-free DC `vout`, volts.
    pub vout_clean: f64,
    /// `vout` with a 2 kΩ pipe on the monitored gate, volts.
    pub vout_faulty: f64,
}

fn r0_values(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => vec![10.0e3, 20.0e3, 40.0e3, 80.0e3, 160.0e3],
        Scale::Quick => vec![20.0e3, 40.0e3, 80.0e3],
    }
}

/// Feedback ablation (§6.3). Two observables distinguish the designs:
///
/// * the worst-case comparator *input margin* (smaller of |vout − ref|
///   over clean/faulty readings) — a fixed mid reference caps this at half
///   the clean/faulty separation ("half a normal noise margin");
/// * the hysteresis band — positive feedback gives a finite band (sharper
///   switching, noise immunity), a fixed reference gives essentially none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackAblation {
    /// Worst-case |vout − vfb| with positive feedback, volts.
    pub with_feedback: f64,
    /// Worst-case |vout − ref| with the fixed mid reference, volts.
    pub fixed_reference: f64,
    /// Hysteresis band width with feedback, volts.
    pub feedback_band: f64,
    /// Hysteresis band width with the fixed reference, volts.
    pub fixed_band: f64,
}

/// Returns `(vout, vfb)` of a variant-3 detector at DC.
fn variant3_inputs(cfg: &Variant3, pipe: Option<f64>) -> Result<(f64, f64), Error> {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let input = b.diff("a");
    b.drive_static("a", input, true)?;
    let cell = b.buffer("DUT", input)?;
    let det = cfg.attach(&mut b, "DET", cell.output)?;
    let mut nl = b.finish();
    if let Some(ohms) = pipe {
        Defect::pipe("DUT.Q3", ohms).inject(&mut nl)?;
    }
    let circuit = nl.compile()?;
    let op = operating_point(&circuit, &DcOptions::default())?;
    Ok((op.voltage(det.vout), op.voltage(det.vfb)))
}

/// Runs the feedback ablation: one chain, since the fixed reference sits
/// between the feedback design's clean and faulty readings.
fn feedback_ablation() -> Result<FeedbackAblation, Error> {
    let fb = Variant3::paper();
    // §6.3 sets the fixed reference "centred between the expected vout
    // value for a fault-free circuit and for a circuit with a 0.35 V
    // amplitude" — i.e. a fault right at the detection limit, where the
    // clean/faulty separation is about one swing. A 10 kΩ pipe produces
    // that marginal excursion here.
    let pipe = 10.0e3;
    let (clean_v, clean_fb) = variant3_inputs(&fb, None)?;
    let (faulty_v, faulty_fb) = variant3_inputs(&fb, Some(pipe))?;
    let with_feedback = (clean_v - clean_fb).abs().min((faulty_v - faulty_fb).abs());
    // Fixed reference centred between the expected clean and faulty vout
    // readings, as §6.3 describes the alternative.
    let vref = 0.5 * (clean_v + faulty_v);
    let fixed = Variant3::paper().with_fixed_reference(vref);
    let (clean_vx, _) = variant3_inputs(&fixed, None)?;
    let (faulty_vx, _) = variant3_inputs(&fixed, Some(pipe))?;
    let fixed_reference = (clean_vx - vref).abs().min((faulty_vx - vref).abs());
    // Hysteresis comparison (Figure 12 with and without feedback).
    let process = CmlProcess::paper();
    let feedback_band = cml_dft::decision::characterize_hysteresis(&fb, &process, 90)?.band;
    let fixed_band = cml_dft::decision::characterize_hysteresis(&fixed, &process, 90)?.band;
    Ok(FeedbackAblation {
        with_feedback,
        fixed_reference,
        feedback_band: feedback_band.width(),
        fixed_band: fixed_band.width(),
    })
}

/// Junction-grading ablation: gate delay with constant junction caps
/// (`mj = 0`, the calibrated default) vs graded junctions (`mj = 0.33`).
/// Two effects compete: the reverse-biased B–C depletion cap shrinks
/// (faster) while the forward-biased B–E cap grows (slower); the net shift
/// is a few percent — evidence that the constant-cap simplification
/// DESIGN.md documents does not drive any conclusion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradingAblation {
    /// Ring-oscillator gate delay with constant caps, seconds.
    pub delay_constant: f64,
    /// Ring-oscillator gate delay with graded junctions, seconds.
    pub delay_graded: f64,
}

/// Gate delay of a 5-stage ring oscillator, with constant or graded
/// junction capacitances.
fn ring_gate_delay(graded: bool) -> Result<f64, Error> {
    use spicier::analysis::tran::{transient, TranOptions};
    use waveform::{Edge, Waveform};
    let mut process = CmlProcess::paper();
    if graded {
        process.npn = process.npn.with_grading(0.75, 0.33);
    }
    let vcross = process.vcross();
    let vhigh = process.vhigh();
    let mut b = CmlCircuitBuilder::new(process);
    let ring = b.ring_oscillator("RING", 5)?;
    let circuit = b.finish().compile()?;
    let opts = TranOptions::new(6.0e-9)
        .with_probes(vec![ring.probe.p])
        .with_initial_voltage(ring.probe.p, vhigh);
    let res = transient(&circuit, &opts)?;
    let w = Waveform::from_slices(
        res.time(),
        res.trace(ring.probe.p)
            .ok_or_else(|| Error::InvalidOptions("ring probe missing".to_string()))?,
    )
    .map_err(|e| Error::InvalidOptions(e.to_string()))?;
    let crossings: Vec<f64> = w
        .crossings(vcross, Edge::Rising)
        .into_iter()
        .filter(|&t| t > 2.0e-9)
        .collect();
    if crossings.len() < 2 {
        return Err(Error::InvalidOptions("ring did not oscillate".to_string()));
    }
    let period = crossings[crossings.len() - 1] - crossings[crossings.len() - 2];
    Ok(period / 10.0)
}

/// Every ablation's result.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Diode vs resistor detector load.
    pub load: LoadAblation,
    /// The R0 sweep, in R0 order.
    pub r0: Vec<R0Point>,
    /// Constant vs graded junctions.
    pub grading: GradingAblation,
    /// Comparator feedback vs a fixed reference.
    pub feedback: FeedbackAblation,
}

/// One analysis of the ablations. The derived order is the order the
/// ablations meet their failures in: load, R0, grading, feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Task {
    /// Settling time with the diode (0) or resistor (1) load.
    Load(usize),
    /// Clean or faulty `vout` at the `index`-th R0.
    R0 { index: usize, faulty: bool },
    /// Ring-oscillator gate delay.
    Grading { graded: bool },
    /// The feedback chain.
    Feedback,
}

/// What a [`Task`] measured.
enum Reading {
    Value(f64),
    Feedback(FeedbackAblation),
}

/// Runs every ablation as one task list on the sweep workers.
///
/// # Errors
///
/// The first failure in `Task` order: the load pair, the R0 points (each
/// clean before faulty), the grading pair, then the feedback chain.
pub fn run(scale: Scale) -> Result<AblationResult, Error> {
    let (loads, t_stop) = loads(scale);
    let r0s = r0_values(scale);
    // Workers take tasks from the end of the list: the 10 pF resistor
    // load, the longest transient by far, starts first.
    let mut tasks: Vec<Task> = (0..r0s.len())
        .flat_map(|index| [false, true].map(|faulty| Task::R0 { index, faulty }))
        .collect();
    tasks.extend([
        Task::Grading { graded: false },
        Task::Grading { graded: true },
        Task::Feedback,
        Task::Load(0),
        Task::Load(1),
    ]);
    let measure = |task: &Task| match *task {
        Task::Load(k) => load_tstab(loads[k], t_stop).map(Reading::Value),
        Task::R0 { index, faulty } => {
            let cfg = Variant3::paper().with_r0(r0s[index]);
            let pipe = faulty.then_some(2.0e3);
            variant3_inputs(&cfg, pipe).map(|(vout, _)| Reading::Value(vout))
        }
        Task::Grading { graded } => ring_gate_delay(graded).map(Reading::Value),
        Task::Feedback => feedback_ablation().map(Reading::Feedback),
    };
    let (slots, mut report) = par_try_map(tasks.clone(), &try_map_options(), measure);
    report.failures.sort_by_key(|f| tasks[f.index]);
    report.into_result()?;

    let mut tstab = [0.0; 2];
    let mut r0: Vec<R0Point> = r0s
        .iter()
        .map(|&r0| R0Point {
            r0,
            vout_clean: 0.0,
            vout_faulty: 0.0,
        })
        .collect();
    let mut delay = [0.0; 2];
    let mut feedback = None;
    for (task, reading) in tasks.into_iter().zip(slots.into_iter().flatten()) {
        match (task, reading) {
            (Task::Load(k), Reading::Value(t)) => tstab[k] = t,
            (Task::R0 { index, faulty }, Reading::Value(v)) => match faulty {
                false => r0[index].vout_clean = v,
                true => r0[index].vout_faulty = v,
            },
            (Task::Grading { graded }, Reading::Value(d)) => delay[usize::from(graded)] = d,
            (Task::Feedback, Reading::Feedback(fb)) => feedback = Some(fb),
            _ => unreachable!("each task reads its own kind"),
        }
    }
    Ok(AblationResult {
        load: LoadAblation {
            diode_tstab: tstab[0],
            resistor_tstab: tstab[1],
        },
        r0,
        grading: GradingAblation {
            delay_constant: delay[0],
            delay_graded: delay[1],
        },
        feedback: feedback.expect("every task succeeded"),
    })
}

/// Runs and prints all ablations.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn execute(scale: Scale) -> Result<(), Error> {
    let AblationResult {
        load,
        r0,
        grading,
        feedback: fb,
    } = run(scale)?;
    println!("\n== ABLATE: detector load (diode vs 160 kΩ resistor), 1 kΩ pipe ==");
    println!(
        "  diode-cap   tstability = {:.1} ns",
        load.diode_tstab * 1e9
    );
    println!(
        "  resistor-cap tstability = {:.1} ns (paper: \"much longer\")",
        load.resistor_tstab * 1e9
    );

    let rows: Vec<Vec<String>> = r0
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}k", p.r0 / 1e3),
                v(p.vout_clean),
                v(p.vout_faulty),
                v(p.vout_clean - p.vout_faulty),
            ]
        })
        .collect();
    print_table(
        "ABLATE: R0 bleed value (paper picks 40 kΩ)",
        &["R0", "vout clean (V)", "vout faulty (V)", "margin (V)"],
        &rows,
    );
    write_rows_csv("ablate_r0", &["r0", "clean", "faulty", "margin"], &rows);

    println!("\n== ABLATE: junction grading (constant vs graded depletion caps) ==");
    println!(
        "  gate delay, constant caps (mj=0)    = {:.1} ps",
        grading.delay_constant * 1e12
    );
    println!(
        "  gate delay, graded junctions (0.33) = {:.1} ps",
        grading.delay_graded * 1e12
    );

    println!("\n== ABLATE: comparator feedback vs fixed reference (§6.3) ==");
    println!(
        "  worst-case input margin with feedback  = {} V",
        v(fb.with_feedback)
    );
    println!(
        "  worst-case input margin, fixed mid ref = {} V (≤ half the clean/faulty separation)",
        v(fb.fixed_reference)
    );
    println!(
        "  hysteresis band: feedback {:.0} mV vs fixed reference {:.0} mV (sharper, noise-immune switching)",
        fb.feedback_band * 1e3,
        fb.fixed_band * 1e3
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-scale ablations, run once for every test that reads them.
    fn quick() -> &'static AblationResult {
        static RESULT: std::sync::OnceLock<AblationResult> = std::sync::OnceLock::new();
        RESULT.get_or_init(|| run(Scale::Quick).unwrap())
    }

    #[test]
    fn diode_load_settles_faster_than_resistor() {
        let r = quick().load;
        assert!(
            r.diode_tstab < r.resistor_tstab,
            "diode {:.1} ns vs resistor {:.1} ns",
            r.diode_tstab * 1e9,
            r.resistor_tstab * 1e9
        );
    }

    #[test]
    fn r0_trades_clean_level_against_margin() {
        let pts = &quick().r0;
        // Smaller R0 → stiffer pull-up → higher clean vout.
        assert!(pts[0].vout_clean > pts[pts.len() - 1].vout_clean - 1e-6);
        // Every R0 keeps a usable detection margin.
        for p in pts {
            assert!(
                p.vout_clean - p.vout_faulty > 0.05,
                "R0 {:.0}: margin too small",
                p.r0
            );
        }
    }

    #[test]
    fn junction_grading_barely_moves_gate_delay() {
        let r = quick().grading;
        // The constant-cap simplification shifts the delay by only a few
        // percent (forward B-E growth vs reverse B-C shrink largely
        // cancel), so it cannot drive any of the paper-level conclusions.
        let shift = (r.delay_graded - r.delay_constant).abs() / r.delay_constant;
        assert!(
            shift < 0.15,
            "grading shifts delay by {:.0}% ({:.1} vs {:.1} ps)",
            100.0 * shift,
            r.delay_graded * 1e12,
            r.delay_constant * 1e12
        );
        assert!((30.0e-12..110.0e-12).contains(&r.delay_constant));
    }

    #[test]
    fn feedback_gives_hysteresis_and_usable_margins() {
        let r = quick().feedback;
        // Feedback creates a finite hysteresis band; a fixed reference has
        // essentially none (single switching point).
        assert!(
            r.feedback_band > r.fixed_band + 5.0e-3,
            "feedback band {:.1} mV vs fixed {:.1} mV",
            r.feedback_band * 1e3,
            r.fixed_band * 1e3
        );
        // Both keep a usable input margin; the fixed reference is capped
        // at half the clean/faulty separation.
        assert!(r.with_feedback > 0.05);
        assert!(r.fixed_reference > 0.0);
    }
}
