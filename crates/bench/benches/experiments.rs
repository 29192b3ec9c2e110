//! Benches (in-repo `microbench` harness): one per regenerated
//! table/figure, running the same experiment kernels as the `exp_*`
//! binaries at `Scale::Quick`.
//!
//! These measure how long each paper artifact takes to regenerate on this
//! machine — the practical cost of the reproduction — while doubling as
//! smoke tests that every experiment still runs end to end.

use cml_bench::microbench::{run_benches, Harness};
use cml_bench::{experiments as exp, Scale};
use std::time::Duration;

fn bench_experiments(c: &mut Harness) {
    let mut group = c.benchmark_group("experiments");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    group.bench_function("fig2_stuck_at", |b| {
        b.iter(|| exp::fig2::run(Scale::Quick).expect("fig2"))
    });
    group.bench_function("fig4_tables_1_2_pipe_healing", |b| {
        b.iter(|| {
            let pair = exp::fig4::simulate(Scale::Quick).expect("fig3 chains");
            (
                exp::fig4::swings(&pair).expect("fig4"),
                exp::table1::measure(&pair).expect("table1"),
                exp::table2::measure(&pair).expect("table2"),
            )
        })
    });
    group.bench_function("fig5_levels_vs_pipe_freq", |b| {
        b.iter(|| exp::fig5::run(Scale::Quick))
    });
    group.bench_function("fig7_detector_response", |b| {
        b.iter(|| exp::fig7::run(Scale::Quick).expect("fig7"))
    });
    group.bench_function("fig8_variant1_settling", |b| {
        b.iter(|| exp::fig8::run(Scale::Quick))
    });
    group.bench_function("fig10_variant2_settling", |b| {
        b.iter(|| exp::fig10::run(Scale::Quick))
    });
    group.bench_function("fig12_hysteresis", |b| {
        b.iter(|| exp::fig12::run(Scale::Quick).expect("fig12"))
    });
    group.bench_function("fig14_load_sharing", |b| {
        b.iter(|| exp::fig14::run(Scale::Quick).expect("fig14"))
    });
    group.bench_function("thresholds_detectable_amplitude", |b| {
        b.iter(|| exp::thresholds::run(Scale::Quick).expect("thresholds"))
    });
    group.bench_function("toggle_coverage", |b| {
        b.iter(|| exp::toggle::run(Scale::Quick).expect("toggle"))
    });
}

fn main() {
    run_benches(&[("bench_experiments", bench_experiments as fn(&mut Harness))]);
}
