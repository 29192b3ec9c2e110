//! Integration: the paper's headline claims, checked end to end through
//! the experiment harness (at `Scale::Quick`). EXPERIMENTS.md records the
//! full-scale numbers; these tests pin the *shapes* so regressions in any
//! crate surface here.

use cml_bench::{experiments as exp, Scale};

#[test]
fn claim_pipe_defects_heal_and_escape_delay_test() {
    // §5, Tables 1–2: a 4 kΩ pipe doubles the DUT swing; the disturbance
    // is invisible in delays a few stages later.
    let pair = exp::fig4::simulate(Scale::Quick).unwrap();
    let fig4 = exp::fig4::swings(&pair).unwrap();
    assert!((1.6..3.2).contains(&fig4.dut_amplification()));
    assert!(fig4.healing_residual() < 0.05);

    let t1 = exp::table1::measure(&pair).unwrap();
    let dut = cml_cells::FIG3_DUT_INDEX;
    let d_dut = t1
        .delta_op(dut)
        .unwrap()
        .abs()
        .max(t1.delta_opb(dut).unwrap().abs());
    let d_final = t1
        .delta_op(7)
        .unwrap()
        .abs()
        .max(t1.delta_opb(7).unwrap().abs());
    assert!(
        d_dut > 4.0 * d_final,
        "no healing: {d_dut:.2e} vs {d_final:.2e}"
    );
}

#[test]
fn claim_variant_thresholds_order() {
    // §6.1/§6.2: variant 1 detects only large excursions (paper 0.57 V),
    // variant 2 with vtest = 3.7 V goes lower (paper 0.35 V).
    let r = exp::thresholds::run(Scale::Quick).unwrap();
    let a1 = r.v1_threshold.expect("v1 fires on severe pipes");
    let a2 = r.v2_threshold.expect("v2 fires on mild pipes");
    assert!(a2 < a1, "v1 {a1:.2} V, v2 {a2:.2} V");
    assert!(a1 > 0.45, "v1 must only catch big excursions, got {a1:.2}");
    assert!(a2 < 0.6, "v2 must catch moderate excursions, got {a2:.2}");
}

#[test]
fn claim_hysteresis_never_deadlocks_a_healthy_gate() {
    // §6.3, Figure 12: two thresholds exist and a fault-free reading sits
    // above the guaranteed-pass line.
    let curve = exp::fig12::run(Scale::Quick).unwrap();
    assert!(curve.band.fail_below < curve.band.pass_above);
    // Healthy single-gate variant-3 vout (from the sharing experiment at
    // N = 1) clears the band.
    let fig14 = exp::fig14::run(Scale::Quick).unwrap();
    let n1 = &fig14.droop[0];
    assert_eq!(n1.n, 1);
    assert!(
        n1.vout > curve.band.pass_above,
        "healthy vout {:.3} vs pass threshold {:.3}",
        n1.vout,
        curve.band.pass_above
    );
}

#[test]
fn claim_load_sharing_keeps_detection() {
    // §6.4, Figure 14: linear droop, a safe maximum exists, and one faulty
    // member still trips the shared detector.
    let r = exp::fig14::run(Scale::Quick).unwrap();
    assert!(r.slope < 0.0);
    assert!(
        r.r_squared > 0.98,
        "droop should be linear, R² {}",
        r.r_squared
    );
    assert!(r.max_safe.is_some());
    assert!(r.fault_detected);
}

#[test]
fn claim_shared_detector_droops_linearly_on_the_sparse_kernel() {
    // §6.4, Figure 14 at the sizes the quick scale skips: sharing groups of
    // 22–40 gates exceed the dense kernel's range, so these operating
    // points run on the sparse kernel. The fault-free readings must match
    // the full-scale `fig14.csv`, keep falling at the −1.07 mV/gate slope
    // EXPERIMENTS.md records, and a piped member must still pull `vout`
    // below the 3.54 V guaranteed-fault threshold.
    use cml_cells::CmlProcess;
    use cml_dft::{SharedDetector, Variant3};
    use spicier::analysis::dc::{operating_point, DcOptions};
    use spicier::linalg::DENSE_CUTOFF;

    let shared = SharedDetector::new(Variant3::paper(), CmlProcess::paper());
    let vout = |n: usize, fault_at: Option<(usize, f64)>| {
        let (handle, circuit) = shared.build(n, fault_at).unwrap();
        assert!(circuit.dim() > DENSE_CUTOFF, "N={n}: dim {}", circuit.dim());
        let op = operating_point(&circuit, &DcOptions::default()).unwrap();
        op.voltage(handle.vout)
    };
    let full_scale = [(22, 3.632), (31, 3.622), (40, 3.613)];
    let readings: Vec<f64> = full_scale
        .iter()
        .map(|&(n, expected)| {
            let v = vout(n, None);
            assert!((v - expected).abs() < 1.0e-3, "N={n}: vout {v:.4} V");
            v
        })
        .collect();
    for (pair, v) in full_scale.windows(2).zip(readings.windows(2)) {
        let slope = (v[1] - v[0]) / (pair[1].0 - pair[0].0) as f64;
        assert!(
            (slope - (-1.07e-3)).abs() < 0.2 * 1.07e-3,
            "N={}..{}: slope {:.3} mV/gate",
            pair[0].0,
            pair[1].0,
            slope * 1e3
        );
    }
    for (n, _) in full_scale {
        let v = vout(n, Some((n / 2, 3.0e3)));
        assert!(v < 3.54, "N={n}: a 3 kΩ pipe reads vout {v:.3} V");
    }
}

#[test]
fn claim_random_patterns_give_toggle_coverage() {
    // §6.6: random patterns achieve high toggle coverage (= amplitude
    // fault coverage), and shift-like structures converge per [13].
    let r = exp::toggle::run(Scale::Quick).unwrap();
    for b in &r.benchmarks {
        assert!(
            b.report.coverage > 0.85,
            "{}: {}",
            b.name,
            b.report.coverage
        );
    }
    assert!(r
        .benchmarks
        .iter()
        .any(|b| b.report.convergence_cycles.is_some()));
}

#[test]
fn claim_overhead_beats_prior_art() {
    // §1: Menon's per-gate XOR costs ~3x a buffer; the shared variant-3
    // detector with merged emitters costs a fraction of a gate.
    use cml_dft::overhead::{overhead, DftScheme};
    use cml_dft::MultiEmitterStyle;
    let menon = overhead(&DftScheme::MenonXorPerGate);
    let ours = overhead(&DftScheme::Variant3 {
        style: MultiEmitterStyle::MergedEmitters,
        shared_gates: 45,
    });
    assert!(menon.relative_to_buffer > 2.5);
    assert!(ours.relative_to_buffer < 0.5);
    assert!(menon.transistors_per_gate / ours.transistors_per_gate > 5.0);
}

#[test]
fn claim_below_at_speed_operation() {
    // The abstract: "this technique works well below 'at-speed'
    // frequencies" — the detector output is a quasi-DC flag readable at
    // tester speed regardless of the 100 MHz+ stimulus.
    let r = exp::fig7::run(Scale::Quick).unwrap();
    let s = r.settling.expect("detector fires");
    // Once settled, the flag stays inside its band for the whole record —
    // a slow tester sampling anywhere after t_settle reads the same answer.
    assert!(s.t_settle < r.vout.t_end() * 0.8);
    assert!(s.v_band_max - s.v_band_min < 0.2, "quasi-DC band");
    assert!(s.depth > 0.2, "clear separation from the rail");
}
