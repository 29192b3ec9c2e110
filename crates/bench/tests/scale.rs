//! Cross-layer scale checks of the structure-aware solver paths against
//! real CML cell circuits.
//!
//! Two families:
//!
//! * every cml-cells gate (buffer, AND, OR, XOR, MUX, latch, DFF) is
//!   assembled at Newton-shaped pseudo-iterates and its MNA system solved
//!   by the dense kernel and the fill-reducing-ordered sparse kernel —
//!   both must certify and agree;
//! * a generator-scale buffer chain (10k+ unknowns in release builds)
//!   must reach a certified DC operating point under the *default*
//!   analysis budget, on the sparse kernel's fill-reducing ordering;
//! * every sparse solve of a cold-start operating point just above the
//!   dense kernel's range runs on the ordered pattern with low fill;
//! * single buffer chains of up to 13 stages reach their operating point
//!   from a cold start on plain Newton, on the dense kernel's ordering,
//!   and chains of 14–17 stages on gmin stepping right after it, within
//!   100 Newton iterations.

use cml_cells::{CmlCircuitBuilder, CmlProcess};
use cml_dft::sharing::SharedDetector;
use cml_dft::Variant3;
use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::analysis::{Assembler, EvalMode};
use spicier::linalg::dense::DenseSolver;
use spicier::linalg::sparse::SparseSolver;
use spicier::linalg::verify::{backward_error, bwerr_tol, inf_norm};
use spicier::linalg::{Solver, SparseMatrix, Triplets, DENSE_CUTOFF};
use spicier::{telemetry, Circuit};

fn build(f: impl FnOnce(&mut CmlCircuitBuilder)) -> Circuit {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    f(&mut b);
    b.finish().compile().unwrap()
}

/// One instance of every cml-cells gate, inputs statically driven.
fn gate_circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        (
            "buffer-chain",
            build(|b| {
                let a = b.diff("a");
                b.drive_static("a", a, true).unwrap();
                b.buffer_chain(&["B0", "B1", "B2", "B3"], a).unwrap();
            }),
        ),
        (
            "and2",
            build(|b| {
                let a = b.diff("a");
                let bb = b.diff("b");
                b.drive_static("a", a, true).unwrap();
                b.drive_static("b", bb, false).unwrap();
                b.and2("G", a, bb).unwrap();
            }),
        ),
        (
            "or2",
            build(|b| {
                let a = b.diff("a");
                let bb = b.diff("b");
                b.drive_static("a", a, false).unwrap();
                b.drive_static("b", bb, true).unwrap();
                b.or2("G", a, bb).unwrap();
            }),
        ),
        (
            "xor2",
            build(|b| {
                let a = b.diff("a");
                let bb = b.diff("b");
                b.drive_static("a", a, true).unwrap();
                b.drive_static("b", bb, true).unwrap();
                b.xor2("G", a, bb).unwrap();
            }),
        ),
        (
            "mux2",
            build(|b| {
                let s = b.diff("s");
                let a = b.diff("a");
                let bb = b.diff("b");
                b.drive_static("s", s, true).unwrap();
                b.drive_static("a", a, true).unwrap();
                b.drive_static("b", bb, false).unwrap();
                b.mux2("G", s, a, bb).unwrap();
            }),
        ),
        (
            "latch",
            build(|b| {
                let d = b.diff("d");
                let c = b.diff("c");
                b.drive_static("d", d, true).unwrap();
                b.drive_static("c", c, true).unwrap();
                b.latch("G", d, c).unwrap();
            }),
        ),
        (
            "dff",
            build(|b| {
                let d = b.diff("d");
                let c = b.diff("c");
                b.drive_static("d", d, true).unwrap();
                b.drive_static("c", c, true).unwrap();
                b.dff("G", d, c).unwrap();
            }),
        ),
    ]
}

/// Measured backward error of `x` against the system assembled from `t`.
fn measured_bwerr(t: &Triplets, x: &[f64], b: &[f64]) -> f64 {
    let a = SparseMatrix::from_triplets(t);
    let ax = a.mul_vec(x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
    let (norm_a_inf, _) = a.norms();
    backward_error(inf_norm(&r), norm_a_inf, inf_norm(x), inf_norm(b))
}

/// Relative ∞-norm disagreement between two solutions.
fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let scale = inf_norm(a).max(inf_norm(b)).max(f64::MIN_POSITIVE);
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
        / scale
}

/// Depth of each buffer chain in the generator-shaped circuits below —
/// the paper's Figure 3 depth. Generators are wide, not deep: many
/// bounded-depth cell chains hanging off the shared rails (deep chains
/// are a known DC-continuation limitation independent of the solver; a
/// single chain stops converging from a cold start somewhere between 16
/// and 20 stages).
const GENERATOR_DEPTH: usize = 8;

/// A generator-shaped circuit: `chains` parallel buffer chains of
/// [`GENERATOR_DEPTH`], all driven from one static input and sharing the
/// rails — repeated channel-connected stages off a common border, the
/// shape the fill-reducing ordering is built for.
fn wide_circuit(chains: usize) -> Circuit {
    build(|b| {
        let a = b.diff("a");
        b.drive_static("a", a, true).unwrap();
        for c in 0..chains {
            let names: Vec<String> = (0..GENERATOR_DEPTH).map(|i| format!("C{c}B{i}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            b.buffer_chain(&refs, a).unwrap();
        }
    })
}

/// Chains needed for [`wide_circuit`] to reach at least `target`
/// unknowns, measured from two probe builds (no hard-coded per-cell
/// unknown counts that would silently drift with the cell library).
fn chains_for_dim(target: usize) -> usize {
    let d2 = wide_circuit(2).dim();
    let d4 = wide_circuit(4).dim();
    let per = (d4 - d2) / 2;
    let base = d2 - 2 * per;
    target.saturating_sub(base).div_ceil(per)
}

/// Every cml-cells gate's MNA system, assembled at several Newton-shaped
/// iterates, must be solved identically (within certified backward
/// error) by the dense kernel and the ordered sparse kernel — the
/// structure-aware machinery must be invisible to the answers on
/// every real cell of the library.
#[test]
fn all_cml_cells_gates_agree_across_solver_paths() {
    let tol = bwerr_tol();
    for (label, circuit) in gate_circuits() {
        let dim = circuit.dim();
        let mut assembler = Assembler::new(&circuit);
        let mut triplets = Triplets::new(dim);
        let mut rhs = Vec::new();
        let mode = EvalMode::dc(1.0e-12);

        let mut dense = DenseSolver::default();
        let mut ordered = SparseSolver::default();

        // Deterministic pseudo-iterates like the Newton loop visits
        // (same construction as the stamp-map faithfulness test); the
        // solvers persist across steps so later steps exercise the
        // cached-pattern refactor fast path of each variant.
        for step in 0..3 {
            let x: Vec<f64> = (0..dim)
                .map(|i| 0.4 * step as f64 * ((i * 31 + 7) % 11) as f64 / 11.0)
                .collect();
            assembler.assemble(&x, &mode, &mut triplets, &mut rhs);

            let mut xd = rhs.clone();
            dense.solve_in_place(&triplets, &mut xd).unwrap();
            let mut xo = rhs.clone();
            ordered.solve_in_place(&triplets, &mut xo).unwrap();

            for (path, x, quality) in [
                ("dense", &xd, dense.last_quality()),
                ("ordered", &xo, ordered.last_quality()),
            ] {
                assert!(
                    quality.backward_error <= tol,
                    "{label}/{path} step={step}: {quality:?}"
                );
                assert!(
                    measured_bwerr(&triplets, x, &rhs) <= tol,
                    "{label}/{path} step={step}: residual"
                );
            }
            let diff = rel_diff(&xd, &xo);
            assert!(
                diff < 1.0e-6,
                "{label}/ordered step={step}: diff {diff:.3e}"
            );
        }
    }
}

/// Largest fill (factor nonzeros ÷ matrix nonzeros) any solve of the
/// ordered pattern may reach on the circuits below; they read at most
/// 1.8, and natural order reads 10–18 at the same Newton iterates.
const MAX_ORDERED_FILL: f64 = 2.0;

/// A cold-start operating point on circuits just above the dense
/// kernel's range — wide generator-shaped circuits and the Figure 14
/// shared detector — factors every system on the ordered pattern with
/// low fill. Natural-order partial pivoting at far-from-converged
/// iterates picks pivots whose fill grows with the circuit; the flight
/// recorder's `sparse_solve` events carry each solve's fill.
#[test]
fn cold_start_sparse_solves_run_ordered_with_low_fill() {
    let shared = SharedDetector::new(Variant3::paper(), CmlProcess::paper());
    let circuits = [
        ("wide-12x8", wide_circuit(12)),
        ("wide-16x8", wide_circuit(16)),
        ("shared-64", shared.build(64, None).unwrap().1),
    ];
    // One op records more events than the default ring holds.
    telemetry::set_capacity(1 << 16);
    for (label, circuit) in circuits {
        assert!(
            circuit.dim() > DENSE_CUTOFF,
            "{label}: dim {}",
            circuit.dim()
        );
        let probe = format!("fill_probe_{label}");
        let events = telemetry::with_trace(|| {
            {
                let _span = telemetry::span(&probe);
                operating_point(&circuit, &DcOptions::default())
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
            }
            telemetry::drain()
        });
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.span.split('/').next() == Some(probe.as_str()))
            .collect();
        assert!(
            mine.first().is_some_and(|e| e.name == "span_begin"),
            "{label}: the ring dropped the start of the op"
        );
        let solves: Vec<_> = mine.iter().filter(|e| e.name == "sparse_solve").collect();
        assert!(!solves.is_empty(), "{label}: no sparse solve recorded");
        let field = |e: &telemetry::Event, key: &str| -> f64 {
            match e.fields.iter().find(|(k, _)| k == key) {
                Some((_, telemetry::Value::Int(v))) => *v as f64,
                Some((_, telemetry::Value::Float(v))) => *v,
                other => panic!("{label}: field {key}: {other:?}"),
            }
        };
        let worst_fill = solves
            .iter()
            .map(|e| field(e, "fill"))
            .fold(0.0f64, f64::max);
        assert!(
            worst_fill <= MAX_ORDERED_FILL,
            "{label}: worst fill {worst_fill:.2} over {} solves",
            solves.len()
        );
    }
    telemetry::set_capacity(telemetry::DEFAULT_CAPACITY);
}

/// The acceptance-scale run: a DC operating point on a generator-shaped
/// circuit (10k+ unknowns in release, a quarter of that under debug
/// assertions) must converge under the *default* analysis budget with a
/// certified solve, and settle every chain to a valid CML level.
#[test]
fn generator_scale_dc_op_converges_under_default_budget() {
    let target = if cfg!(debug_assertions) { 2560 } else { 10240 };
    let chains = chains_for_dim(target);
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let a = b.diff("a");
    b.drive_static("a", a, true).unwrap();
    let mut outputs = Vec::with_capacity(chains);
    for c in 0..chains {
        let names: Vec<String> = (0..GENERATOR_DEPTH).map(|i| format!("C{c}B{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let chain = b.buffer_chain(&refs, a).unwrap();
        outputs.push(chain.last_output());
    }
    let circuit = b.finish().compile().unwrap();
    assert!(circuit.dim() >= target, "dim = {}", circuit.dim());

    let op = operating_point(&circuit, &DcOptions::default())
        .expect("generator-scale DC op under default budget");
    assert!(
        op.quality().backward_error <= bwerr_tol(),
        "{:?}",
        op.quality()
    );
    // Non-inverting chains driven high: the first and last chain's final
    // outputs sit at a valid CML high level.
    let p = CmlProcess::paper();
    for out in [outputs[0], *outputs.last().unwrap()] {
        let v = op.voltage(out.p);
        assert!((v - p.vhigh()).abs() < 0.05, "chain output: {v}");
    }
}

/// Cold-start operating points of single buffer chains of 2–13 stages
/// converge on the first rung, plain Newton, with every output high. On
/// chains of 11–13 stages one Newton iterate's Jacobian meets a pivot
/// under the floor in the minimum-degree order but not in the natural
/// order; the dense kernel's natural recheck keeps those iterates solved
/// instead of escalating the ladder to gmin stepping.
///
/// Chains of 14–17 stages fail plain Newton and converge on the next
/// rung, gmin stepping, in at most 100 Newton iterations in all. (At 18
/// stages the ladder reaches source stepping; 19 and 20 still fail.)
#[test]
fn deep_chains_converge_on_plain_newton() {
    let high = CmlProcess::paper().vhigh();
    for depth in 2..=17 {
        let mut out = None;
        let circuit = build(|b| {
            let a = b.diff("a");
            b.drive_static("a", a, true).unwrap();
            let names: Vec<String> = (0..depth).map(|i| format!("B{i}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            out = Some(b.buffer_chain(&refs, a).unwrap().last_output());
        });
        assert!(circuit.dim() <= DENSE_CUTOFF);
        let op = operating_point(&circuit, &DcOptions::default())
            .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
        let rungs: Vec<_> = op
            .report()
            .attempts
            .iter()
            .map(|a| (a.rung.label(), a.converged))
            .collect();
        if depth <= 13 {
            assert_eq!(rungs, [("newton", true)], "depth {depth}");
        } else {
            assert_eq!(
                rungs,
                [("newton", false), ("gmin-stepping", true)],
                "depth {depth}"
            );
            let iterations = op.report().total_iterations();
            assert!(iterations <= 100, "depth {depth}: {iterations} iterations");
        }
        let v = op.voltage(out.unwrap().p);
        assert!((v - high).abs() < 0.05, "depth {depth}: output {v}");
    }
}
