//! Shared circuit-building and measurement helpers for the experiments.

use cml_cells::{waveform_of, BufferChain, CmlCircuitBuilder, CmlProcess};
use faults::Defect;
use spicier::analysis::sweep::TryMapOptions;
use spicier::analysis::tran::{transient, transient_with, Probe, TranOptions, TranResult};
use spicier::SolveWorkspace;
use spicier::{Circuit, Error};
use std::time::Duration;
use waveform::Waveform;

/// Sweep options shared by the fault-isolated experiments.
///
/// `EXP_CORNER_DEADLINE_MS=<millis>` installs a per-corner wall-clock
/// deadline: a corner that exceeds its slice is recorded as timed out
/// (with phase and elapsed time) instead of stalling the whole campaign.
/// Unset, empty or zero leaves corners unbounded. `exp_all` rejects any
/// other value before anything runs; another caller is warned, and runs
/// unbounded.
pub fn try_map_options() -> TryMapOptions {
    let value = std::env::var("EXP_CORNER_DEADLINE_MS").ok();
    let corner_deadline = parse_corner_deadline(value.as_deref()).unwrap_or_else(|e| {
        eprintln!("  [warn] {e}; corners run unbounded");
        None
    });
    TryMapOptions {
        corner_deadline,
        ..TryMapOptions::default()
    }
}

/// Parses `EXP_CORNER_DEADLINE_MS`: a whole number of milliseconds. Unset,
/// empty or zero means no deadline.
///
/// # Errors
///
/// Any other value, named in the message.
pub fn parse_corner_deadline(value: Option<&str>) -> Result<Option<Duration>, String> {
    match value.map(str::trim) {
        None | Some("") => Ok(None),
        Some(v) => match v.parse::<u64>() {
            Ok(0) => Ok(None),
            Ok(ms) => Ok(Some(Duration::from_millis(ms))),
            Err(_) => Err(format!(
                "EXP_CORNER_DEADLINE_MS={v} is not a whole number of milliseconds"
            )),
        },
    }
}

/// The Figure 3 test circuit with an optional pipe on the DUT's Q3,
/// compiled and ready to run.
pub fn fig3_circuit(freq: f64, pipe_ohms: Option<f64>) -> Result<(BufferChain, Circuit), Error> {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let chain = b.fig3_chain(freq)?;
    let mut nl = b.finish();
    if let Some(ohms) = pipe_ohms {
        Defect::pipe("DUT.Q3", ohms).inject(&mut nl)?;
    }
    Ok((chain, nl.compile()?))
}

/// Runs `periods / freq` of simulated time on `circuit` with default
/// accuracy.
pub fn run_periods(circuit: &Circuit, freq: f64, periods: f64) -> Result<TranResult, Error> {
    transient(circuit, &TranOptions::new(periods / freq))
}

/// Runs with a restricted probe set (memory-friendly sweeps) and a
/// caller-owned solver workspace, so sweep workers reuse the cached stamp
/// map and symbolic factorization across same-topology corners.
pub fn run_periods_probed_with(
    circuit: &Circuit,
    freq: f64,
    periods: f64,
    probes: Vec<spicier::NodeId>,
    ws: &mut SolveWorkspace,
) -> Result<TranResult, Error> {
    let mut opts = TranOptions::new(periods / freq);
    opts.probes = Probe::Nodes(probes);
    transient_with(circuit, &opts, ws)
}

/// Extracts a waveform, mapping probe errors into [`Error`].
pub fn wf(res: &TranResult, node: spicier::NodeId) -> Result<Waveform, Error> {
    waveform_of(res, node).map_err(|e| Error::InvalidOptions(format!("missing probe: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_deadline_is_millis_or_nothing() {
        assert_eq!(parse_corner_deadline(None), Ok(None));
        assert_eq!(parse_corner_deadline(Some(" ")), Ok(None));
        assert_eq!(parse_corner_deadline(Some("000")), Ok(None));
        assert_eq!(
            parse_corner_deadline(Some(" 300 ")),
            Ok(Some(Duration::from_millis(300)))
        );
        for bad in ["soon", "-5", "1.5", "300ms"] {
            let err = parse_corner_deadline(Some(bad)).unwrap_err();
            assert!(
                err.contains("EXP_CORNER_DEADLINE_MS") && err.contains(bad),
                "{err}"
            );
        }
    }

    #[test]
    fn fig3_circuit_builds_clean_and_faulty() {
        let (chain, clean) = fig3_circuit(100.0e6, None).unwrap();
        assert_eq!(chain.len(), 8);
        assert!(clean.dim() > 30);
        let (_, faulty) = fig3_circuit(100.0e6, Some(4.0e3)).unwrap();
        assert_eq!(faulty.dim(), clean.dim());
        assert!(faulty.netlist().element("FLT.pipe.DUT.Q3").is_ok());
    }

    #[test]
    fn run_periods_executes() {
        let (chain, circuit) = fig3_circuit(1.0e9, None).unwrap();
        let res = run_periods(&circuit, 1.0e9, 1.0).unwrap();
        assert!(res.accepted_steps() > 10);
        let w = wf(&res, chain.dut().output.p).unwrap();
        assert!(w.len() > 10);
    }
}
