//! Cross-layer check of the stamp-slot assembly fast path: for every
//! experiment circuit family, the compressed MNA stamps must equal the
//! dense scatter of the same stamps bit for bit, and a `StampMap` scatter
//! must reproduce a fresh compression bit for bit, at the DC operating
//! point and at perturbed iterates (the values the transient Newton loop
//! actually assembles). Every sealed program is slotted, so both kernels
//! read the same sums, each added into +0.0 in emission order.

use cml_bench::experiments::common::fig3_circuit;
use cml_cells::{CmlCircuitBuilder, CmlProcess};
use cml_dft::{DetectorLoad, Variant1, Variant2};
use faults::Defect;
use spicier::analysis::{Assembler, EvalMode, Integration, Method};
use spicier::linalg::{DenseMatrix, SparseMatrix, StampMap, Triplets};
use spicier::{Circuit, Netlist};

/// Builds the FIG7/FIG8 detector circuit (3-stage chain, DUT detector).
fn detector_circuit(variant2: Option<f64>, pipe_ohms: Option<f64>) -> Circuit {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let input = b.diff("a");
    b.drive_differential("a", input, 400.0e6).unwrap();
    let chain = b.buffer_chain(&["X1", "DUT", "X2"], input).unwrap();
    let dut = &chain.cells[1];
    let load = DetectorLoad::diode_cap(1.0e-12);
    match variant2 {
        None => {
            Variant1::new(load)
                .attach(&mut b, "DET", dut.output)
                .unwrap();
        }
        Some(vtest) => {
            Variant2::new(load, vtest)
                .attach(&mut b, "DET", dut.output)
                .unwrap();
        }
    }
    let mut nl = b.finish();
    if let Some(ohms) = pipe_ohms {
        Defect::pipe("DUT.Q3", ohms).inject(&mut nl).unwrap();
    }
    nl.compile().unwrap()
}

/// A plain resistive/reactive netlist exercising branch-current unknowns.
fn rlc_circuit() -> Circuit {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    nl.vdc("V1", a, Netlist::GROUND, 3.3).unwrap();
    nl.resistor("R1", a, b, 1.0e3).unwrap();
    nl.capacitor("C1", b, Netlist::GROUND, 1.0e-12).unwrap();
    nl.inductor("L1", b, Netlist::GROUND, 1.0e-9).unwrap();
    nl.compile().unwrap()
}

/// Asserts that `csc`, densified, equals the dense scatter of `triplets`
/// bit for bit.
fn assert_matches_dense_scatter(label: &str, csc: &SparseMatrix, triplets: &Triplets) {
    let n = triplets.dim();
    let dense = DenseMatrix::from_triplets(triplets);
    let mut densified = vec![0.0; n * n];
    for c in 0..n {
        for p in csc.col_ptr()[c]..csc.col_ptr()[c + 1] {
            densified[csc.rows()[p] * n + c] = csc.vals()[p];
        }
    }
    for (k, &got) in densified.iter().enumerate() {
        let want = dense.get(k / n, k % n);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label}: ({}, {}) compressed {got:e} vs scattered {want:e}",
            k / n,
            k % n
        );
    }
}

/// `matrix`'s pattern and the bits of its values.
fn bits(matrix: &SparseMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    let vals = matrix.vals().iter().map(|v| v.to_bits()).collect();
    (matrix.col_ptr().to_vec(), matrix.rows().to_vec(), vals)
}

/// Asserts that the compression matches the dense scatter and that a
/// scatter through the map equals a fresh compression, for every
/// Newton-relevant evaluation mode of `circuit`.
fn assert_stamp_map_faithful(label: &str, circuit: &Circuit) {
    let triplets = &mut Triplets::new(circuit.dim());
    let mut assembler = Assembler::new(circuit);
    let dim = circuit.dim();
    let mut rhs = Vec::new();

    let modes = [
        EvalMode::dc(1.0e-12),
        EvalMode {
            integ: Integration::Step {
                method: Method::BackwardEuler,
                h: 1.0e-11,
            },
            time: 1.0e-10,
            gmin: 1.0e-12,
            source_scale: 1.0,
        },
        EvalMode {
            integ: Integration::Step {
                method: Method::Trapezoidal,
                h: 2.5e-11,
            },
            time: 3.0e-10,
            gmin: 1.0e-12,
            source_scale: 1.0,
        },
    ];

    for (m, mode) in modes.iter().enumerate() {
        // A deterministic pseudo-iterate: zero start, then biased points
        // like the Newton loop visits (junction limiting changes values,
        // never the stamp key sequence for a fixed mode).
        for step in 0..3 {
            let x: Vec<f64> = (0..dim)
                .map(|i| 0.4 * step as f64 * ((i * 31 + m * 7) % 11) as f64 / 11.0)
                .collect();
            assembler.assemble(&x, mode, triplets, &mut rhs);
            let (map, built) = StampMap::build(triplets);
            assert_matches_dense_scatter(label, &built, triplets);
            // Re-assemble at a different iterate and scatter through the
            // map built above: same keys, new values.
            let x2: Vec<f64> = x.iter().map(|v| v * 0.5 + 0.01).collect();
            assembler.assemble(&x2, mode, triplets, &mut rhs);
            let mut scattered = built;
            assert!(
                map.scatter(triplets, &mut scattered),
                "{label}: stamp sequence changed between iterates"
            );
            assert_eq!(
                bits(&scattered),
                bits(&SparseMatrix::from_triplets(triplets)),
                "{label}: scatter mismatch"
            );
            assert_matches_dense_scatter(label, &scattered, triplets);
        }
    }
}

#[test]
fn stamp_map_matches_triplet_assembly_on_fig3_chain() {
    let (_, fault_free) = fig3_circuit(100.0e6, None).unwrap();
    assert_stamp_map_faithful("fig3 fault-free", &fault_free);
    let (_, piped) = fig3_circuit(1.0e9, Some(2.0e3)).unwrap();
    assert_stamp_map_faithful("fig3 pipe", &piped);
}

#[test]
fn stamp_map_matches_triplet_assembly_on_detector_circuits() {
    assert_stamp_map_faithful("variant1 detector", &detector_circuit(None, None));
    assert_stamp_map_faithful(
        "variant2 detector with pipe",
        &detector_circuit(Some(3.7), Some(2.0e3)),
    );
}

#[test]
fn stamp_map_matches_triplet_assembly_on_branch_unknowns() {
    assert_stamp_map_faithful("rlc with branch currents", &rlc_circuit());
}
