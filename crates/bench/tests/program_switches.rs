//! The kernels' caches survive stamp-program switches and program-id
//! misses.
//!
//! * A second transient of the FIG3 topology on a shared workspace (its
//!   own `Assembler`, as `transient_with` sweeps run them) reproduces a
//!   fresh workspace's run bit for bit, with the same factorization
//!   paths and counters: the kernels recompile at the same pattern
//!   switches a fresh solver does, and nothing stale survives them.
//! * A new `Assembler` compiles its program under a new id; on the same
//!   keys the dense kernel adopts the id and keeps its plan, so the first
//!   Newton iteration replays it, in DC and in a transient step alike.
//! * The shared detector at N = 75 escalates through the DC ladder to
//!   pseudo-transient on the sparse kernel; every rung switch keeps the
//!   ordering, the fill and the counters pinned below, which are the
//!   values the sparse kernel gave before the dense kernel was ordered.

use cml_cells::{CmlCircuitBuilder, CmlProcess};
use cml_dft::sharing::SharedDetector;
use cml_dft::Variant3;
use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::analysis::mna::{Assembler, EvalMode, Integration, Method, SolveWorkspace};
use spicier::analysis::tran::{transient_with, TranOptions};
use spicier::linalg::{LuStats, Solver};
use spicier::telemetry::{self, Event, Value};
use spicier::Circuit;
use std::sync::Mutex;

/// The flight recorder is process-global: the tests of this file take
/// turns with it.
static RECORDER: Mutex<()> = Mutex::new(());

fn fig3_circuit() -> Circuit {
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    b.fig3_chain(1.0e9).unwrap();
    b.finish().compile().unwrap()
}

fn field<'a>(e: &'a Event, key: &str) -> Option<&'a Value> {
    e.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `path` of every `dense_solve` event under the span `span`.
fn dense_paths(events: &[Event], span: &str) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.name == "dense_solve" && e.span.contains(span))
        .filter_map(|e| match field(e, "path") {
            Some(Value::Str(p)) => Some(p.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn a_second_transient_on_a_shared_workspace_matches_a_fresh_one() {
    let _guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let circuit = fig3_circuit();
    assert!(circuit.dim() <= spicier::linalg::DENSE_CUTOFF);
    let opts = TranOptions::new(1.0e-9);
    telemetry::set_capacity(1 << 17);
    let (first, second, fresh, events) = telemetry::with_trace(|| {
        let mut shared = SolveWorkspace::for_circuit(&circuit);
        let first = {
            let _span = telemetry::span("first_run");
            transient_with(&circuit, &opts, &mut shared).unwrap()
        };
        let before = shared.solver.stats();
        let second = {
            let _span = telemetry::span("second_run");
            transient_with(&circuit, &opts, &mut shared).unwrap()
        };
        let second_lu = shared.solver.stats().delta_since(&before);
        let mut own = SolveWorkspace::for_circuit(&circuit);
        let fresh = {
            let _span = telemetry::span("fresh_run");
            transient_with(&circuit, &opts, &mut own).unwrap()
        };
        let fresh_lu = own.solver.stats();
        (
            first,
            (second, second_lu),
            (fresh, fresh_lu),
            telemetry::drain(),
        )
    });
    telemetry::set_capacity(telemetry::DEFAULT_CAPACITY);
    let (second, second_lu) = second;
    let (fresh, fresh_lu) = fresh;
    let bits = |r: &spicier::analysis::tran::TranResult| {
        r.probed_nodes()
            .iter()
            .flat_map(|&n| r.trace(n).unwrap().iter().map(|v| v.to_bits()))
            .chain(r.time().iter().map(|t| t.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&second), bits(&fresh));
    assert_eq!(bits(&first), bits(&fresh));
    assert_eq!(second_lu, fresh_lu);
    let second_paths = dense_paths(&events, "second_run");
    assert!(!second_paths.is_empty(), "no dense_solve events recorded");
    assert_eq!(second_paths, dense_paths(&events, "fresh_run"));
    assert!(second_paths.iter().any(|p| p == "refactor"));
}

/// Solves one Newton iteration of `assembler` at `x` in `mode` on `ws`;
/// returns the factorization path it took and the counters it added.
fn iterate(
    assembler: &mut Assembler<'_>,
    ws: &mut SolveWorkspace,
    x: &[f64],
    mode: &EvalMode,
) -> (String, LuStats) {
    let before = ws.solver.stats();
    let events = telemetry::with_trace(|| {
        let _span = telemetry::span("program_switch_iteration");
        assembler.reset_junctions(x);
        assembler.assemble(x, mode, &mut ws.triplets, &mut ws.rhs);
        ws.solver.solve_in_place(&ws.triplets, &mut ws.rhs).unwrap();
        telemetry::drain()
    });
    let paths = dense_paths(&events, "program_switch_iteration");
    assert_eq!(paths.len(), 1, "{paths:?}");
    (paths[0].clone(), ws.solver.stats().delta_since(&before))
}

#[test]
fn a_new_assembler_on_the_same_keys_replays_the_dense_plan() {
    let _guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let circuit = fig3_circuit();
    let x = operating_point(&circuit, &DcOptions::default())
        .unwrap()
        .into_unknowns();
    let step = EvalMode {
        integ: Integration::Step {
            method: Method::Trapezoidal,
            h: 1.0e-12,
        },
        time: 1.0e-12,
        gmin: 1.0e-12,
        source_scale: 1.0,
    };
    for mode in [EvalMode::dc(1.0e-12), step] {
        let mut ws = SolveWorkspace::for_circuit(&circuit);
        let mut first = Assembler::new(&circuit);
        first.init_charges(&x);
        // Two full factorizations with one pivot order record the plan;
        // the third iteration replays it.
        let paths: Vec<String> = (0..3)
            .map(|_| iterate(&mut first, &mut ws, &x, &mode).0)
            .collect();
        assert_eq!(paths, ["full", "full", "refactor"], "{mode:?}");
        let first_id = ws.triplets.program_id();

        let mut second = Assembler::new(&circuit);
        second.init_charges(&x);
        let (path, lu) = iterate(&mut second, &mut ws, &x, &mode);
        assert_ne!(ws.triplets.program_id(), first_id, "a new program id");
        assert_eq!(path, "refactor", "{mode:?}: the plan survives the id miss");
        assert_eq!(
            (lu.full_factors, lu.refactors),
            (0, 1),
            "{mode:?}: no rebuild"
        );
    }
}

/// Per ladder rung of the N = 75 op: Newton iterations, whether the rung
/// converged, sparse solves, pivot fallbacks, and the sum of every
/// solve's fill (factor nonzeros over matrix nonzeros), which moves with
/// any change of ordering or pivot sequence.
fn rung_digest(sol: &spicier::DcSolution, events: &[Event]) -> Vec<String> {
    sol.report()
        .attempts
        .iter()
        .map(|a| {
            let label = a.rung.label();
            let in_rung = |e: &&Event| e.span.ends_with(&format!("n75_ladder/{label}"));
            let fills: Vec<f64> = events
                .iter()
                .filter(in_rung)
                .filter(|e| e.name == "sparse_solve")
                .filter_map(|e| match field(e, "fill") {
                    Some(Value::Float(f)) => Some(*f),
                    _ => None,
                })
                .collect();
            let fallbacks = events
                .iter()
                .filter(in_rung)
                .filter(|e| e.name == "pivot_fallback")
                .count();
            format!(
                "{label} it={} conv={} solves={} fallbacks={fallbacks} fill={:.9}",
                a.iterations,
                a.converged,
                fills.len(),
                fills.iter().sum::<f64>(),
            )
        })
        .collect()
}

#[test]
fn shared_detector_ladder_keeps_the_sparse_ordering_across_rungs() {
    let _guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let (_, circuit) = SharedDetector::new(Variant3::paper(), CmlProcess::paper())
        .build(75, None)
        .unwrap();
    assert!(circuit.dim() > spicier::linalg::DENSE_CUTOFF);
    telemetry::set_capacity(1 << 17);
    let (sol, events) = telemetry::with_trace(|| {
        let sol = {
            let _span = telemetry::span("n75_ladder");
            operating_point(&circuit, &DcOptions::default()).unwrap()
        };
        (sol, telemetry::drain())
    });
    telemetry::set_capacity(telemetry::DEFAULT_CAPACITY);
    assert_eq!(
        rung_digest(&sol, &events),
        [
            "newton it=6 conv=false solves=6 fallbacks=2 fill=8.266336187",
            "gmin-stepping it=29 conv=false solves=29 fallbacks=4 fill=40.005858495",
            "source-stepping it=41 conv=false solves=41 fallbacks=1 fill=56.483551149",
            "pseudo-transient it=118 conv=true solves=118 fallbacks=21 fill=164.763406940",
        ]
    );
    assert_eq!(
        sol.telemetry().lu,
        LuStats {
            full_factors: 29,
            refactors: 165,
            pivot_fallbacks: 28,
            solves: 194,
        }
    );
}
