//! Integration tests for the telemetry layer: a failing analysis must
//! dump a flight-recorder JSONL trajectory identifying the failing rung
//! or corner, every successful result must carry a telemetry rollup
//! even with tracing fully disabled, and dense solves must name the
//! factorization path they took.

use spicier::analysis::sweep::{par_try_map, TryMapOptions};
use spicier::analysis::tran::{transient, TranOptions};
use spicier::analysis::{operating_point, sweep_vsource, DcOptions, RecoveryRung};
use spicier::devices::DiodeModel;
use spicier::linalg::dense::DenseSolver;
use spicier::linalg::{Solver, Triplets};
use spicier::netlist::{Netlist, SourceWave};
use spicier::{chaos, telemetry, Circuit, Error};
use std::path::PathBuf;
use std::sync::Mutex;

/// The dump path and ring are process-global: tests that redirect the
/// dump serialize on this lock.
static DUMP_LOCK: Mutex<()> = Mutex::new(());

fn diode_circuit() -> Circuit {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let d = nl.node("d");
    nl.vdc("V1", a, Netlist::GROUND, 3.3).unwrap();
    nl.resistor("R1", a, d, 6.0e3).unwrap();
    nl.diode("D1", d, Netlist::GROUND, DiodeModel::new())
        .unwrap();
    nl.compile().unwrap()
}

fn rc_circuit() -> Circuit {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
    nl.resistor("R1", a, b, 1.0e3).unwrap();
    nl.capacitor("C1", b, Netlist::GROUND, 1.0e-9).unwrap();
    nl.compile().unwrap()
}

fn dump_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "spicier-telemetry-test-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn failure_dump_names_failing_rung() {
    let _guard = DUMP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = dump_file("dc");
    telemetry::set_dump_path(Some(path.clone()));
    let c = diode_circuit();
    // A NaN-poisoned stamp exhausts every rung of the recovery ladder.
    let err = telemetry::with_trace(|| {
        chaos::with_nan_stamp(|| operating_point(&c, &DcOptions::default()).unwrap_err())
    });
    telemetry::set_dump_path(None);
    assert!(matches!(err, Error::DcNoConvergence { .. }), "{err}");

    let dump = std::fs::read_to_string(&path).expect("failure must write the flight recorder");
    let _ = std::fs::remove_file(&path);
    assert!(!dump.is_empty());
    assert!(dump.contains("\"dump_begin\""), "{dump}");
    assert!(dump.contains("DcNoConvergence"), "{dump}");
    // The trajectory identifies the rungs that were attempted (events are
    // scoped under per-rung spans) and the final failure record.
    assert!(dump.contains("gmin-stepping"), "{dump}");
    assert!(dump.contains("\"failure\""), "{dump}");
    // Every line is one standalone JSON object.
    for line in dump.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
}

#[test]
fn corner_failure_dump_identifies_corner() {
    let _guard = DUMP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = dump_file("corner");
    telemetry::set_dump_path(Some(path.clone()));
    // `with_trace` is thread-scoped, so pin the sweep to the calling
    // thread; the env-gated campaign path enables all workers instead.
    let opts = TryMapOptions {
        max_workers: Some(1),
        ..TryMapOptions::default()
    };
    let (_, report) = telemetry::with_trace(|| {
        par_try_map((0..4).collect(), &opts, |&i: &i32| {
            if i == 2 {
                return Err(Error::SingularMatrix {
                    column: 7,
                    pivot: 0.0,
                    scale: 1.0,
                });
            }
            Ok(i)
        })
    });
    telemetry::set_dump_path(None);
    assert_eq!(report.failures.len(), 1);

    let dump = std::fs::read_to_string(&path).expect("corner failure must dump");
    let _ = std::fs::remove_file(&path);
    assert!(dump.contains("CornerFailure"), "{dump}");
    assert!(dump.contains("corner 2"), "{dump}");
    assert!(dump.contains("corner_failed"), "{dump}");
}

#[test]
fn results_carry_rollup_without_tracing() {
    // No tracing, no env vars: the per-result rollup is still populated
    // from counters the analyses track anyway.
    let c = rc_circuit();
    let op = operating_point(&c, &DcOptions::default()).unwrap();
    assert_eq!(
        op.telemetry().newton_iterations,
        op.report().total_iterations() as u64
    );
    assert!(op.telemetry().lu.full_factors >= 1);
    assert!(op.telemetry().worst_backward_error.is_some());

    let res = transient(&c, &TranOptions::new(1.0e-7)).unwrap();
    assert_eq!(res.telemetry().accepted_steps, res.accepted_steps() as u64);
    assert_eq!(res.telemetry().rejected_steps, res.rejected_steps() as u64);
    assert_eq!(
        res.telemetry().newton_iterations,
        res.newton_iterations() as u64
    );
    assert!(res.telemetry().wall > std::time::Duration::ZERO);
    assert!(
        res.telemetry().lu.solves as u64 >= res.telemetry().newton_iterations,
        "every Newton iteration performs at least one solve: {}",
        res.telemetry().lu
    );
}

/// A node held by a negative conductance (a VCCS that feeds its own
/// voltage back) between anti-parallel diodes, driven from `VS` through
/// 10 kΩ. For drives between about ±6 V it has two stable states, so a
/// sweep across that range and back passes a fold each way.
fn bistable_circuit() -> Circuit {
    let mut nl = Netlist::new();
    let s = nl.node("s");
    let x = nl.node("x");
    nl.vdc("VS", s, Netlist::GROUND, 0.0).unwrap();
    nl.resistor("R1", s, x, 10.0e3).unwrap();
    nl.vccs("G1", Netlist::GROUND, x, x, Netlist::GROUND, 1.0e-3)
        .unwrap();
    nl.diode("D1", x, Netlist::GROUND, DiodeModel::new())
        .unwrap();
    nl.diode("D2", Netlist::GROUND, x, DiodeModel::new())
        .unwrap();
    nl.compile().unwrap()
}

#[test]
fn continuation_sweep_counts_its_failed_warm_starts() {
    let up: Vec<f64> = (0..=40).map(|k| -10.0 + 0.5 * f64::from(k)).collect();
    let values: Vec<f64> = up.iter().chain(up.iter().rev()).copied().collect();
    let sols = sweep_vsource(&bistable_circuit(), "VS", &values, &DcOptions::default()).unwrap();
    // Each Newton iteration does one LU solve, and no solve here needs
    // refinement, so whole counts agree.
    let newton: u64 = sols.iter().map(|s| s.telemetry().newton_iterations).sum();
    let solves: u64 = sols.iter().map(|s| s.telemetry().lu.solves as u64).sum();
    assert_eq!(newton, solves);
    // Past a fold, Newton from the previous point fails and the cold
    // ladder takes over: the report lists the failed warm start first.
    let folds: Vec<_> = sols[1..]
        .iter()
        .map(|s| s.report())
        .filter(|r| r.attempts.len() > 1)
        .collect();
    assert!(!folds.is_empty(), "the sweep crosses no fold");
    for report in folds {
        let [warm, cold, ..] = report.attempts.as_slice() else {
            unreachable!("filtered to two or more attempts")
        };
        assert_eq!((warm.rung, warm.converged), (RecoveryRung::Newton, false));
        assert!(warm.iterations > 0, "{}", report.summary());
        assert_eq!(cold.rung, RecoveryRung::Newton, "{}", report.summary());
    }
}

#[test]
fn dense_solve_events_name_the_factorization_path() {
    let _guard = DUMP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Column 0 pivots on the larger of a00 and a10.
    let system = |a00: f64, a10: f64| {
        let mut t = Triplets::new(2);
        t.add(0, 0, a00);
        t.add(1, 0, a10);
        t.add(0, 1, 2.0);
        t.add(1, 1, 7.0);
        t
    };
    let mut solver = DenseSolver::default();
    let events = telemetry::with_trace(|| {
        let _span = telemetry::span("dense_path_probe");
        for (a00, a10) in [(1.0, 5.0), (2.0, 6.0), (3.0, 7.0), (9.0, 0.5)] {
            solver
                .solve_in_place(&system(a00, a10), &mut [1.0, 1.0])
                .unwrap();
        }
        telemetry::drain()
    });
    let paths: Vec<&str> = events
        .iter()
        .filter(|e| e.name == "dense_solve" && e.span.ends_with("dense_path_probe"))
        .filter_map(|e| match e.fields.iter().find(|(k, _)| k == "path") {
            Some((_, telemetry::Value::Str(p))) => Some(p.as_str()),
            _ => None,
        })
        .collect();
    // Two full factorizations with one pivot order record the plan; the
    // third call replays it; the swapped column-0 magnitudes abandon it.
    assert_eq!(paths, ["full", "full", "refactor", "fallback"]);
}

/// A 1 kΩ RC low-pass with capacitor `cap` under a 100 MHz square wave.
fn square_rc(cap: f64) -> Circuit {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    let wave = SourceWave::square(0.0, 1.0, 1.0e8, 0.2);
    nl.vsource("V1", a, Netlist::GROUND, wave).unwrap();
    nl.resistor("R1", a, b, 1.0e3).unwrap();
    nl.capacitor("C1", b, Netlist::GROUND, cap).unwrap();
    nl.compile().unwrap()
}

#[test]
fn periodic_skip_events_name_their_kind() {
    let _guard = DUMP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Each skip's `kind` and, for a jump along a drift, the unknown that
    // limited it (-1 when the second-to-last boundary did).
    let skips = |cap: f64| -> Vec<(String, i64)> {
        let c = square_rc(cap);
        let events = telemetry::with_trace(|| {
            let _span = telemetry::span("periodic_skip_probe");
            transient(&c, &TranOptions::new(4.0e-7)).unwrap();
            telemetry::drain()
        });
        events
            .iter()
            .filter(|e| e.name == "periodic_skip" && e.span.contains("periodic_skip_probe"))
            .map(|e| {
                let field = |key: &str| e.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                match (field("kind"), field("limiter")) {
                    (Some(telemetry::Value::Str(kind)), Some(telemetry::Value::Int(limiter))) => {
                        (kind.clone(), *limiter)
                    }
                    other => panic!("malformed periodic_skip event: {other:?}"),
                }
            })
            .collect()
    };
    // τ = 1 ns against a 10 ns period: settles, and is copied once.
    assert_eq!(skips(1.0e-12), [("copy".to_string(), -1)]);
    // τ = 1 ms: charges by a nearly constant amount every period.
    let drifting = skips(1.0e-6);
    assert!(!drifting.is_empty());
    assert!(
        drifting.iter().all(|(kind, _)| kind == "extrapolate"),
        "{drifting:?}"
    );
}
