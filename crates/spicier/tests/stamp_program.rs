//! The compiled stamp program reproduces a freshly pushed assembly bit for
//! bit.
//!
//! One [`Triplets`] is walked through every public mode pattern — DC with
//! and without gmin, backward-Euler and trapezoidal steps, and back — on
//! circuits that hold every element kind, below and above
//! [`DENSE_CUTOFF`]. At each step its keys, values and right-hand side
//! must equal those of a new `Triplets` assembled from the same iterate,
//! the program must recompile exactly when the pattern changes, and a
//! workspace solving the replayed program must give the bits a fresh
//! solver gives.

use spicier::analysis::mna::{Assembler, EvalMode, Integration, Method, SolveWorkspace};
use spicier::devices::{BjtModel, DiodeModel};
use spicier::linalg::{AutoSolver, Solver, Triplets, DENSE_CUTOFF};
use spicier::netlist::{Netlist, SourceWave};
use spicier::Circuit;

/// `cells` copies of a cell holding every element kind: resistor,
/// capacitor, inductor, diode, NPN and PNP transistors, VCVS, VCCS, a
/// pulsed voltage source and a DC current source, with grounded and
/// floating terminals alike.
fn every_element_circuit(cells: usize) -> Circuit {
    let mut nl = Netlist::new();
    let vcc = nl.node("vcc");
    nl.vdc("VCC", vcc, Netlist::GROUND, 3.3).unwrap();
    for k in 0..cells {
        let node = |nl: &mut Netlist, name: &str| nl.node(&format!("{name}{k}"));
        let (inp, b, c, e, d, l, x, y) = (
            node(&mut nl, "in"),
            node(&mut nl, "b"),
            node(&mut nl, "c"),
            node(&mut nl, "e"),
            node(&mut nl, "d"),
            node(&mut nl, "l"),
            node(&mut nl, "x"),
            node(&mut nl, "y"),
        );
        let name = |s: &str| format!("{s}{k}");
        let pulse = SourceWave::square(1.0, 1.6, 1.0e9 * (1.0 + k as f64), 0.1);
        nl.vsource(&name("VIN"), inp, Netlist::GROUND, pulse)
            .unwrap();
        nl.resistor(&name("RB"), inp, b, 2.0e3).unwrap();
        nl.bjt(&name("Q"), c, b, e, BjtModel::fast_npn()).unwrap();
        nl.resistor(&name("RC"), vcc, c, 1.0e3).unwrap();
        nl.resistor(&name("RE"), e, Netlist::GROUND, 500.0).unwrap();
        nl.capacitor(&name("CL"), c, Netlist::GROUND, 50.0e-15)
            .unwrap();
        nl.capacitor(&name("CF"), c, b, 5.0e-15).unwrap();
        nl.bjt(&name("QP"), Netlist::GROUND, c, d, BjtModel::fast_pnp())
            .unwrap();
        nl.diode(&name("D"), vcc, d, DiodeModel::new()).unwrap();
        nl.inductor(&name("L"), d, l, 1.0e-9).unwrap();
        nl.resistor(&name("RL"), l, Netlist::GROUND, 3.0e3).unwrap();
        nl.vcvs(&name("E"), x, Netlist::GROUND, c, e, 0.5).unwrap();
        nl.resistor(&name("RX"), x, Netlist::GROUND, 1.0e3).unwrap();
        nl.vccs(&name("G"), y, Netlist::GROUND, Netlist::GROUND, x, 1.0e-3)
            .unwrap();
        nl.resistor(&name("RY"), y, Netlist::GROUND, 2.0e3).unwrap();
        nl.idc(&name("I"), Netlist::GROUND, y, 1.0e-4).unwrap();
    }
    nl.compile().unwrap()
}

fn step(method: Method, h: f64, time: f64) -> EvalMode {
    EvalMode {
        integ: Integration::Step { method, h },
        time,
        gmin: 1.0e-12,
        source_scale: 1.0,
    }
}

/// The walk: every public mode pattern, repeats of the same pattern with
/// fresh values, and back to where it started.
fn walk() -> Vec<EvalMode> {
    vec![
        EvalMode::dc(1.0e-12),
        EvalMode::dc(1.0e-12),
        EvalMode::dc(0.0),
        EvalMode {
            source_scale: 0.5,
            ..EvalMode::dc(0.0)
        },
        step(Method::BackwardEuler, 1.0e-12, 1.0e-12),
        step(Method::Trapezoidal, 2.0e-12, 3.0e-12),
        step(Method::Trapezoidal, 1.5e-12, 4.5e-12),
        EvalMode::dc(1.0e-12),
        step(Method::BackwardEuler, 1.0e-13, 4.6e-12),
    ]
}

/// Keys and value bit patterns, in emission order.
fn program_bits(t: &Triplets) -> Vec<(usize, usize, u64)> {
    t.entries()
        .iter()
        .map(|&(r, c, v)| (r, c, v.to_bits()))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A deterministic Newton-shaped iterate: node voltages within the rails.
fn iterate(dim: usize, round: usize) -> Vec<f64> {
    (0..dim)
        .map(|i| 0.3 + 0.25 * ((i * 7 + round * 13) % 11) as f64 / 11.0 * (1 + round % 3) as f64)
        .collect()
}

fn check_walk(circuit: &Circuit) {
    let dim = circuit.dim();
    let mut assembler = Assembler::new(circuit);
    assembler.init_charges(&iterate(dim, 99));
    let mut ws = SolveWorkspace::for_circuit(circuit);
    let mut previous: Option<(EvalMode, u64)> = None;
    for (round, mode) in walk().into_iter().enumerate() {
        let x = iterate(dim, round);

        assembler.reset_junctions(&x);
        let mut fresh = Triplets::new(dim);
        let mut fresh_rhs = Vec::new();
        assembler.assemble(&x, &mode, &mut fresh, &mut fresh_rhs);

        assembler.reset_junctions(&x);
        assembler.assemble(&x, &mode, &mut ws.triplets, &mut ws.rhs);
        assert_eq!(
            program_bits(&ws.triplets),
            program_bits(&fresh),
            "dim {dim} round {round}: replayed program"
        );
        assert_eq!(
            bits(&ws.rhs),
            bits(&fresh_rhs),
            "dim {dim} round {round}: rhs"
        );

        // The program recompiles exactly when the mode pattern changes:
        // gmin on or off, DC or transient step.
        let id = ws
            .triplets
            .program_id()
            .expect("assembly seals the program");
        if let Some((prev_mode, prev_id)) = previous {
            let pattern =
                |m: &EvalMode| (m.gmin > 0.0, matches!(m.integ, Integration::Step { .. }));
            assert_eq!(
                id == prev_id,
                pattern(&prev_mode) == pattern(&mode),
                "dim {dim} round {round}: program id {prev_id} -> {id}"
            );
        }
        previous = Some((mode, id));

        // A workspace that trusts the id solves to the bits of a fresh
        // solver that compares every key.
        let mut fresh_x = fresh_rhs.clone();
        AutoSolver::new()
            .solve_in_place(&fresh, &mut fresh_x)
            .unwrap();
        ws.solver.solve_in_place(&ws.triplets, &mut ws.rhs).unwrap();
        assert_eq!(
            bits(&ws.rhs),
            bits(&fresh_x),
            "dim {dim} round {round}: solve"
        );
    }
}

/// Cells of [`every_element_circuit`] that put it above [`DENSE_CUTOFF`].
const SPARSE_CELLS: usize = 24;

#[test]
fn program_replays_fresh_assembly_on_the_dense_kernel() {
    let circuit = every_element_circuit(1);
    assert!(circuit.dim() <= DENSE_CUTOFF, "dim {}", circuit.dim());
    check_walk(&circuit);
}

#[test]
fn program_replays_fresh_assembly_on_the_sparse_kernel() {
    let circuit = every_element_circuit(SPARSE_CELLS);
    assert!(circuit.dim() > DENSE_CUTOFF, "dim {}", circuit.dim());
    check_walk(&circuit);
}

/// A push after sealing unseals the program, and the kernels fall back to
/// comparing keys, on every solve of an unsealed system: the extra entry
/// is solved, not ignored, and so is a second unsealed system.
#[test]
fn unsealed_systems_are_compared_key_by_key() {
    for cells in [1, SPARSE_CELLS] {
        let circuit = every_element_circuit(cells);
        let dim = circuit.dim();
        let x = iterate(dim, 0);
        let mut assembler = Assembler::new(&circuit);
        let mut ws = SolveWorkspace::for_circuit(&circuit);
        let mode = EvalMode::dc(1.0e-12);
        assembler.assemble(&x, &mode, &mut ws.triplets, &mut ws.rhs);
        let mut first = ws.rhs.clone();
        ws.solver.solve_in_place(&ws.triplets, &mut first).unwrap();

        assembler.assemble(&x, &mode, &mut ws.triplets, &mut ws.rhs);
        ws.triplets.add(0, 0, 1.0);
        assert_eq!(ws.triplets.program_id(), None);
        let mut pushed = ws.rhs.clone();
        ws.solver.solve_in_place(&ws.triplets, &mut pushed).unwrap();
        let mut expected = ws.rhs.clone();
        AutoSolver::new()
            .solve_in_place(&ws.triplets, &mut expected)
            .unwrap();
        assert_eq!(bits(&pushed), bits(&expected), "dim {dim}");
        assert_ne!(bits(&pushed), bits(&first), "dim {dim}");

        let mut diagonal = Triplets::new(dim);
        for i in 0..dim {
            diagonal.add(i, i, 1.0 + i as f64);
        }
        let mut y: Vec<f64> = (0..dim).map(|i| 1.0 + i as f64).collect();
        ws.solver.solve_in_place(&diagonal, &mut y).unwrap();
        assert!(y.iter().all(|&v| v == 1.0), "dim {dim}: {y:?}");
    }
}
