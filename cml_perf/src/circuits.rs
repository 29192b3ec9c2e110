//! The circuits the workloads run, built only through the repository's
//! public cell, detector and defect builders.

use cml_cells::{BufferChain, CmlCircuitBuilder, CmlProcess, DiffPair};
use cml_dft::{DetectorLoad, SharedDetector, Variant1, Variant3, Variant3Handle};
use faults::Defect;
use spicier::{Circuit, Error};

/// Stimulus frequencies of the paper's FIG3-chain experiments.
pub const FIG3_FREQS: [f64; 5] = [100.0e6, 250.0e6, 500.0e6, 1.0e9, 2.0e9];

/// The paper's Figure 3 chain (eight buffers, square-wave input at
/// `freq`), optionally with a pipe of `pipe_ohms` on `DUT.Q3`.
pub fn fig3(freq: f64, pipe_ohms: Option<f64>) -> Result<(BufferChain, Circuit), Error> {
    cml_bench::experiments::common::fig3_circuit(freq, pipe_ohms)
}

/// The FIG8 detector-settling circuit: buffers X1, DUT, X2 with a
/// variant-1 detector (diode + `cap` load) on the DUT output and a pipe
/// of `pipe_ohms` on `DUT.Q3` — the circuit the campaign spends most of
/// its time integrating.
pub fn settling(freq: f64, pipe_ohms: f64, cap: f64) -> Result<Circuit, Error> {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let input = b.diff("a");
    b.drive_differential("a", input, freq)?;
    let chain = b.buffer_chain(&["X1", "DUT", "X2"], input)?;
    Variant1::new(DetectorLoad::diode_cap(cap)).attach(&mut b, "DET", chain.cells[1].output)?;
    let mut nl = b.finish();
    Defect::pipe("DUT.Q3", pipe_ohms).inject(&mut nl)?;
    nl.compile()
}

/// `chains` parallel buffer chains of `depth` stages driven high from one
/// static input (`chains = 1`: one deep chain). Returns the circuit and
/// the final output pair of the first and the last chain.
pub fn chains(chains: usize, depth: usize) -> Result<(Circuit, [DiffPair; 2]), Error> {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let a = b.diff("a");
    b.drive_static("a", a, true)?;
    let mut outputs = Vec::with_capacity(chains);
    for c in 0..chains {
        let names: Vec<String> = (0..depth).map(|i| format!("C{c}B{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        outputs.push(b.buffer_chain(&refs, a)?.last_output());
    }
    let (Some(&first), Some(&last)) = (outputs.first(), outputs.last()) else {
        return Err(Error::InvalidOptions("a wide circuit needs a chain".into()));
    };
    Ok((b.finish().compile()?, [first, last]))
}

/// Figure 14's load-sharing circuit: `n` statically driven buffers on one
/// shared variant-3 detector, optionally with a pipe `(buffer, ohms)`.
pub fn shared(n: usize, pipe: Option<(usize, f64)>) -> Result<(Variant3Handle, Circuit), Error> {
    SharedDetector::new(Variant3::paper(), CmlProcess::paper()).build(n, pipe)
}
