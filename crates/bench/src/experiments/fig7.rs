//! FIG7 — variant-1 detector transient response (paper Figure 7):
//! a 1 kΩ pipe, diode–10 pF load, 100 MHz stimulus. The waveform has "a
//! transient period and a relatively stable period"; `tstability` is the
//! time of the first minimum, `Vmax` the maximum of the ripple afterwards.

use super::common::wf;
use super::report::{ns, out_dir, v, write_waveforms_csv};
use crate::Scale;
use cml_cells::{CmlCircuitBuilder, CmlProcess};
use cml_dft::{DetectorHandle, DetectorLoad, Variant1};
use faults::Defect;
use spicier::analysis::tran::{transient, TranOptions};
use spicier::{Circuit, Error, NodeId};
use waveform::{SettlingInfo, StabilityOptions, StabilityResult, Waveform};

/// Detector output excursion below which a run counts as "did not fire".
pub const FIRE_DEPTH: f64 = 0.08;

/// Result of the detector-response experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// The detector output waveform.
    pub vout: Waveform,
    /// The paper's first-minimum measurement (`None` when the decay never
    /// rebounds or never starts).
    pub stability: Option<StabilityResult>,
    /// Robust band-entry settling measurement (`None` when the detector
    /// never fired, i.e. moved less than [`FIRE_DEPTH`]).
    pub settling: Option<SettlingInfo>,
}

/// Builds a DUT buffer (in a 3-stage chain) driven at `freq`, with a
/// detector on its output (variant 1, or variant 2 at `vtest`) and a pipe
/// of `pipe_ohms` on `DUT.Q3` when finite.
///
/// # Errors
///
/// Propagates netlist and fault-injection failures.
pub fn detector_circuit(
    pipe_ohms: f64,
    load: DetectorLoad,
    freq: f64,
    variant2: Option<f64>,
) -> Result<(Circuit, DetectorHandle), Error> {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let input = b.diff("a");
    b.drive_differential("a", input, freq)?;
    let chain = b.buffer_chain(&["X1", "DUT", "X2"], input)?;
    let dut = &chain.cells[1];
    let handle = match variant2 {
        None => Variant1::new(load).attach(&mut b, "DET", dut.output)?,
        Some(vtest) => cml_dft::Variant2::new(load, vtest).attach(&mut b, "DET", dut.output)?,
    };
    let mut nl = b.finish();
    if pipe_ohms.is_finite() {
        Defect::pipe("DUT.Q3", pipe_ohms).inject(&mut nl)?;
    }
    Ok((nl.compile()?, handle))
}

/// Simulates [`detector_circuit`] to `t_stop`; returns the detector
/// output.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn detector_response(
    pipe_ohms: f64,
    load: DetectorLoad,
    freq: f64,
    t_stop: f64,
    variant2: Option<f64>,
) -> Result<Fig7Result, Error> {
    let (circuit, handle) = detector_circuit(pipe_ohms, load, freq, variant2)?;
    let opts = detector_options(handle.vout, t_stop, variant2.is_some());
    let res = transient(&circuit, &opts)?;
    Ok(measure_detector(wf(&res, handle.vout)?))
}

/// The transient options of [`detector_response`] for a detector output
/// `vout` (`variant2` as there).
pub(crate) fn detector_options(vout: NodeId, t_stop: f64, variant2: bool) -> TranOptions {
    let mut opts = TranOptions::new(t_stop);
    opts.probes = spicier::analysis::tran::Probe::Nodes(vec![vout]);
    if variant2 {
        // A test session *switches test mode on*: before it, the detector
        // load capacitor idles at the rail. With a static DC input the
        // fault is already asserted at the operating point (§6.6: "fully
        // detectable with DC test"), so without this pre-history there
        // would be no settling transient to measure.
        opts = opts.with_initial_voltage(vout, CmlProcess::paper().vgnd);
    }
    opts
}

/// The measurements of [`detector_response`] on a detector output.
pub(crate) fn measure_detector(vout: Waveform) -> Fig7Result {
    let stability = StabilityResult::measure(
        &vout,
        &StabilityOptions {
            min_prominence: 0.05,
            rebound: 2.0e-3,
        },
    );
    let settling = SettlingInfo::measure(&vout, 0.1).filter(|s| s.depth > FIRE_DEPTH);
    Fig7Result {
        vout,
        stability,
        settling,
    }
}

/// Runs the paper's exact Figure 7 configuration.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run(scale: Scale) -> Result<Fig7Result, Error> {
    let (cap, t_stop) = match scale {
        Scale::Full => (10.0e-12, 300.0e-9),
        Scale::Quick => (1.0e-12, 60.0e-9),
    };
    detector_response(1.0e3, DetectorLoad::diode_cap(cap), 100.0e6, t_stop, None)
}

/// Runs and prints the paper-shaped report.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn execute(scale: Scale) -> Result<(), Error> {
    let r = run(scale)?;
    write_waveforms_csv("fig7_vout", &[("vout", &r.vout)])?;
    println!("\n== FIG7: variant-1 detector response, 1 kΩ pipe, diode load, 100 MHz ==");
    match &r.stability {
        Some(s) => {
            println!("  tstability = {} ns", ns(s.t_stability));
            println!("  V at first minimum = {} V", v(s.v_min));
            println!("  Vmax after stability = {} V (ripple ceiling)", v(s.v_max));
        }
        None => println!("  detector did not fire (no minimum found)"),
    }
    println!("  [csv] {}", out_dir().join("fig7_vout.csv").display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_fires_with_transient_then_stable_period() {
        let r = run(Scale::Quick).unwrap();
        let s = r.stability.expect("1 kΩ pipe must fire the detector");
        // The output dove well below the rail...
        assert!(s.v_min < 2.9, "v_min {}", s.v_min);
        // ...in a finite settling time, after which it ripples below vgnd.
        assert!(s.t_stability > 0.0 && s.t_stability < 60.0e-9);
        assert!(s.v_max < 3.25, "post-stability Vmax {}", s.v_max);
        assert!(s.v_max >= s.v_min);
    }

    #[test]
    fn a_waveform_csv_that_cannot_be_written_fails_the_experiment() {
        let result = spicier::chaos::with_failpoints("csv.write=err", || execute(Scale::Quick));
        let err = result.expect_err("the csv.write failpoint must stop fig7_vout.csv");
        assert!(err.to_string().contains("csv.write"), "{err}");
    }
}
