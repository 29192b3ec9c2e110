//! Ablation benches: integration method and accuracy-knob cost, and the
//! ablation experiment kernels themselves.

use cml_bench::microbench::{run_benches, Harness};
use cml_bench::{experiments::ablations, Scale};
use spicier::analysis::mna::Method;
use spicier::analysis::tran::{transient, TranOptions};
use spicier::netlist::{Netlist, SourceWave};
use std::time::Duration;

fn rc_circuit() -> spicier::Circuit {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    nl.vsource(
        "V1",
        a,
        Netlist::GROUND,
        SourceWave::square(0.0, 1.0, 1.0e7, 0.05),
    )
    .expect("fresh netlist");
    nl.resistor("R1", a, b, 1.0e3).expect("fresh netlist");
    nl.capacitor("C1", b, Netlist::GROUND, 1.0e-9)
        .expect("fresh netlist");
    nl.compile().expect("compiles")
}

fn bench_integration_methods(c: &mut Harness) {
    let mut group = c.benchmark_group("integration");
    group.measurement_time(Duration::from_secs(2));
    let circuit = rc_circuit();
    for (name, method) in [
        ("trapezoidal", Method::Trapezoidal),
        ("backward_euler", Method::BackwardEuler),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut opts = TranOptions::new(1.0e-6);
                opts.method = method;
                transient(&circuit, &opts).expect("tran")
            })
        });
    }
    // The accuracy knob: halving dv_max roughly doubles edge resolution.
    for dv in [0.1, 0.05, 0.02] {
        group.bench_function(format!("dv_max_{dv}"), |b| {
            b.iter(|| {
                let opts = TranOptions::new(1.0e-6).with_dv_max(dv);
                transient(&circuit, &opts).expect("tran")
            })
        });
    }
}

fn bench_ablation_kernels(c: &mut Harness) {
    let mut group = c.benchmark_group("ablations");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("ablation_study", |b| {
        b.iter(|| ablations::run(Scale::Quick).expect("ablations"))
    });
}

fn main() {
    run_benches(&[
        (
            "bench_integration_methods",
            bench_integration_methods as fn(&mut Harness),
        ),
        (
            "bench_ablation_kernels",
            bench_ablation_kernels as fn(&mut Harness),
        ),
    ]);
}
