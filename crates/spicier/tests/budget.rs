//! Budget edge cases: corner-token deadlines and iteration caps firing
//! inside every DC ladder rung, between transient steps, across sweeps,
//! and in the AC/noise analyses — plus the chaos-injection harness that
//! proves a hung or NaN-poisoned Newton loop cannot escape the budget
//! layer.

use spicier::analysis::ac::{ac_analysis, AcOptions};
use spicier::analysis::noise::{noise_analysis, NoiseOptions};
use spicier::analysis::sweep::{par_try_map, SweepFailure, TryMapOptions};
use spicier::analysis::tran::{transient, transient_salvage, TranOptions};
use spicier::analysis::{
    operating_point, sweep_vsource, with_corner_token, DcOptions, Phase, RunBudget,
};
use spicier::devices::DiodeModel;
use spicier::netlist::Netlist;
use spicier::{chaos, CancelToken, Circuit, Error};
use std::time::{Duration, Instant};

/// Nonlinear two-node circuit (source, resistor, diode): converges under
/// plain Newton, but needs several iterations.
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

#[test]
fn zero_deadline_fails_operating_point_before_any_work() {
    let c = diode_circuit();
    let expired = CancelToken::with_deadline(Duration::ZERO);
    let err =
        with_corner_token(&expired, || operating_point(&c, &DcOptions::default())).unwrap_err();
    match err {
        Error::DeadlineExceeded {
            phase, progress, ..
        } => {
            assert_eq!(phase, Phase::DcOperatingPoint);
            assert_eq!(progress, 0.0);
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
}

#[test]
fn pre_cancelled_token_fails_operating_point() {
    let c = diode_circuit();
    let cancel = CancelToken::new();
    cancel.cancel();
    assert!(
        with_corner_token(&cancel, || operating_point(&c, &DcOptions::default()))
            .unwrap_err()
            .is_deadline_exceeded()
    );
}

/// Drives the iteration cap into every one of the four ladder rungs: a
/// hang-chaos run never converges, so an unlimited run records all four
/// rungs' iteration counts; a cap landing strictly inside rung `k` must
/// then fire there, which the rung-based `progress` fraction exposes.
#[test]
fn newton_iteration_cap_fires_inside_each_ladder_rung() {
    let c = diode_circuit();
    let base = DcOptions {
        max_iterations: 5,
        ..DcOptions::default()
    };
    // Unlimited hang run: the whole ladder fails, reporting per-rung cost.
    let report = chaos::with_failpoints("newton.hang", || {
        match operating_point(&c, &base).unwrap_err() {
            Error::DcNoConvergence {
                report: Some(report),
                ..
            } => *report,
            other => panic!("expected ladder exhaustion, got {other}"),
        }
    });
    assert_eq!(report.attempts.len(), 4, "{}", report.summary());
    assert!(report.succeeded.is_none());

    let mut spent_before = 0usize;
    for (k, attempt) in report.attempts.iter().enumerate() {
        assert!(attempt.iterations >= 2, "rung {k} too cheap to cap inside");
        // A cap one iteration into rung k fires inside rung k.
        let opts = DcOptions {
            budget: RunBudget::unlimited().with_max_newton_iterations(spent_before + 1),
            ..base.clone()
        };
        let err = chaos::with_failpoints("newton.hang", || operating_point(&c, &opts).unwrap_err());
        match err {
            Error::DeadlineExceeded { progress, .. } => {
                let expected = k as f64 / 4.0;
                assert!(
                    (progress - expected).abs() < 1e-9,
                    "cap {} fired at progress {progress}, expected rung {k} ({expected})",
                    spent_before + 1
                );
            }
            other => panic!("cap {} gave {other}", spent_before + 1),
        }
        spent_before += attempt.iterations;
    }
}

#[test]
fn wall_clock_deadline_bounds_a_hung_newton_loop() {
    let c = diode_circuit();
    // The error's own `elapsed` starts when the solve does, after the
    // token's clock: bound the deadline with a clock started first.
    let started = Instant::now();
    let token = CancelToken::with_deadline(Duration::from_millis(50));
    let err = with_corner_token(&token, || {
        chaos::with_failpoints("newton.hang", || {
            operating_point(&c, &DcOptions::default()).unwrap_err()
        })
    });
    let elapsed = started.elapsed();
    match err {
        Error::DeadlineExceeded { phase, .. } => {
            assert_eq!(phase, Phase::DcOperatingPoint);
            assert!(elapsed >= Duration::from_millis(50), "{elapsed:?}");
            assert!(elapsed < Duration::from_secs(10), "{elapsed:?}");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
}

#[test]
fn nan_stamp_is_rejected_not_silently_accepted() {
    // Without the non-finite iterate guard, `NaN > tol` being false would
    // make the NaN-poisoned solve *converge*. It must fail instead.
    let c = diode_circuit();
    let err = chaos::with_failpoints("newton.nan", || {
        operating_point(&c, &DcOptions::default()).unwrap_err()
    });
    assert!(
        matches!(err, Error::DcNoConvergence { .. }),
        "NaN-stamped solve must exhaust the ladder, got {err}"
    );
}

#[test]
fn transient_timestep_cap_salvages_the_prefix() {
    let c = rc_circuit();
    let mut opts = TranOptions::new(1.0e-6);
    opts.budget = RunBudget::unlimited().with_max_timesteps(5);
    let res = transient_salvage(&c, &opts).unwrap();
    let fail = res.failure().expect("cap must interrupt the run");
    assert!(fail.error.is_deadline_exceeded(), "{}", fail.error);
    assert!((0.0..1.0).contains(&fail.progress));
    // The salvaged prefix is intact: exactly the accepted steps plus t=0,
    // and no more attempts than the cap allowed.
    assert_eq!(res.time().len(), res.accepted_steps() + 1);
    assert!(res.accepted_steps() + res.rejected_steps() <= 5);
    assert!(res.accepted_steps() >= 1, "prefix was discarded");
    // The strict wrapper surfaces the same error instead of a partial run.
    assert!(transient(&c, &opts).unwrap_err().is_deadline_exceeded());
}

#[test]
fn transient_newton_iteration_budget_salvages_midrun() {
    // The cap fires *inside* a step's Newton solve (not at the loop top):
    // the prefix must still come back, with the deadline as the failure.
    let c = rc_circuit();
    let mut opts = TranOptions::new(1.0e-6);
    opts.budget = RunBudget::unlimited().with_max_newton_iterations(40);
    let res = transient_salvage(&c, &opts).unwrap();
    let fail = res.failure().expect("iteration budget must interrupt");
    assert!(fail.error.is_deadline_exceeded());
    match &fail.error {
        Error::DeadlineExceeded { phase, .. } => assert_eq!(*phase, Phase::Transient),
        other => panic!("{other}"),
    }
    assert!(res.accepted_steps() >= 1);
    assert_eq!(res.time().len(), res.accepted_steps() + 1);
}

#[test]
fn transient_zero_deadline_cannot_start() {
    let c = rc_circuit();
    let opts = TranOptions::new(1.0e-6);
    let expired = CancelToken::with_deadline(Duration::ZERO);
    assert!(with_corner_token(&expired, || transient_salvage(&c, &opts))
        .unwrap_err()
        .is_deadline_exceeded());
}

#[test]
fn sweep_vsource_budget_reports_phase_and_progress() {
    let c = diode_circuit();
    let values: Vec<f64> = (0..16).map(|i| i as f64 * 0.2).collect();
    // Generous enough for a few points, not the whole sweep.
    let opts = DcOptions {
        budget: RunBudget::unlimited().with_max_newton_iterations(30),
        ..DcOptions::default()
    };
    let err = sweep_vsource(&c, "V1", &values, &opts).unwrap_err();
    match err {
        Error::DeadlineExceeded {
            phase, progress, ..
        } => {
            assert_eq!(phase, Phase::DcSweep);
            assert!(
                progress > 0.0 && progress < 1.0,
                "expected mid-sweep interruption, got progress {progress}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    // Unlimited budget completes the same sweep.
    assert_eq!(
        sweep_vsource(&c, "V1", &values, &DcOptions::default())
            .unwrap()
            .len(),
        values.len()
    );
}

#[test]
fn ac_and_noise_respect_their_budgets() {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
    nl.resistor("R1", a, b, 1.0e3).unwrap();
    nl.capacitor("C1", b, Netlist::GROUND, 1.0e-9).unwrap();
    let c = nl.compile().unwrap();
    let freqs: Vec<f64> = vec![1.0e3, 1.0e4, 1.0e5];
    let expired = CancelToken::with_deadline(Duration::ZERO);
    let ac = AcOptions::new("V1", freqs.clone());
    match with_corner_token(&expired, || ac_analysis(&c, &ac)).unwrap_err() {
        Error::DeadlineExceeded { phase, .. } => assert_eq!(phase, Phase::Ac),
        other => panic!("{other}"),
    }
    let noise = NoiseOptions::new(b, freqs);
    match with_corner_token(&expired, || noise_analysis(&c, &noise)).unwrap_err() {
        Error::DeadlineExceeded { phase, .. } => assert_eq!(phase, Phase::Noise),
        other => panic!("{other}"),
    }
}

/// End-to-end corner isolation: one hung corner in a real sweep times out
/// with its phase and elapsed time; every healthy corner's value is
/// identical to a chaos-free run of the same sweep.
#[test]
fn hung_corner_is_isolated_and_healthy_corners_match_clean_run() {
    let solve = |&v: &f64| -> Result<f64, Error> {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let d = nl.node("d");
        nl.vdc("V1", a, Netlist::GROUND, v).unwrap();
        nl.resistor("R1", a, d, 6.0e3).unwrap();
        nl.diode("D1", d, Netlist::GROUND, DiodeModel::new())
            .unwrap();
        let c = nl.compile().unwrap();
        let op = operating_point(&c, &DcOptions::default())?;
        Ok(op.voltage(d))
    };
    let values: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0];
    let clean_opts = TryMapOptions {
        max_workers: Some(1),
        ..TryMapOptions::default()
    };
    let (clean, clean_report) = par_try_map(values.clone(), &clean_opts, solve);
    assert!(clean_report.all_ok());

    const HUNG: usize = 2;
    let chaos_opts = TryMapOptions {
        corner_deadline: Some(Duration::from_millis(150)),
        max_workers: Some(1),
    };
    let (chaotic, report) = par_try_map(values, &chaos_opts, |v: &f64| {
        if *v == 3.0 {
            chaos::with_failpoints("newton.hang", || solve(v))
        } else {
            solve(v)
        }
    });
    assert_eq!(report.failures.len(), 1, "{}", report.summary());
    let fail = &report.failures[0];
    assert_eq!(fail.index, HUNG);
    match &fail.failure {
        SweepFailure::TimedOut { elapsed, error } => {
            assert!(*elapsed >= Duration::from_millis(150));
            assert!(matches!(
                error,
                Error::DeadlineExceeded {
                    phase: Phase::DcOperatingPoint,
                    ..
                }
            ));
        }
        other => panic!("expected TimedOut, got {other}"),
    }
    assert!(
        report.summary().contains("1 timed out"),
        "{}",
        report.summary()
    );
    for (i, (chaos_slot, clean_slot)) in chaotic.iter().zip(&clean).enumerate() {
        if i == HUNG {
            assert!(chaos_slot.is_none());
        } else {
            assert_eq!(
                chaos_slot, clean_slot,
                "corner {i} value drifted under chaos"
            );
        }
    }
}
