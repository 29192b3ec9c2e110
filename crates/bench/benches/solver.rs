//! Simulator-kernel benches: linear solvers, MNA assembly, transient
//! throughput. These justify the solver architecture in DESIGN.md (dense
//! LU up to the size cutoff, Gilbert–Peierls sparse LU above it) and
//! quantify both kernels' cached-pattern refactorization fast paths
//! (DESIGN.md §3.2, §3.7).
//!
//! Results are also written to `target/bench/BENCH_solver.json` so CI and
//! the next session can compare runs without scraping stdout. Set
//! `BENCH_QUICK=1` for the trimmed smoke run.

use cml_bench::experiments::fig7::detector_circuit;
use cml_bench::microbench::{quick_mode, run_benches, take_records, write_json_report, Harness};
use cml_cells::{CmlCircuitBuilder, CmlProcess};
use cml_dft::DetectorLoad;
use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::analysis::tran::{transient, TranOptions};
use spicier::analysis::{Assembler, EvalMode, Integration, Method, SolveWorkspace};
use spicier::linalg::dense::DenseSolver;
use spicier::linalg::{
    DenseMatrix, Solver, SparseLu, SparseMatrix, StampMap, Triplets, DENSE_CUTOFF,
};
use spicier::{telemetry, Circuit};
use std::path::Path;
use std::time::Duration;

/// Circuit-like sparse system: a chain with nearest-neighbour coupling and
/// a few long-range entries (like a shared test bus).
fn chain_matrix(n: usize) -> Triplets {
    let mut t = Triplets::new(n);
    for i in 0..n {
        t.add(i, i, 4.0 + (i % 3) as f64);
        if i + 1 < n {
            t.add(i, i + 1, -1.0);
            t.add(i + 1, i, -1.0);
        }
        if i % 10 == 0 && i > 0 {
            t.add(0, i, -0.1);
            t.add(i, 0, -0.1);
        }
    }
    t
}

/// The FIG3 8-buffer chain (X6..X66 + DUT in the paper's numbering),
/// compiled.
fn fig3_chain_circuit(freq: f64) -> Circuit {
    let mut bld = CmlCircuitBuilder::new(CmlProcess::paper());
    bld.fig3_chain(freq).expect("build");
    bld.finish().compile().expect("compile")
}

/// Assembles the FIG3 chain's DC MNA stamps at a converged iterate — the
/// exact (pattern, values) the transient Newton loop re-solves thousands
/// of times.
fn fig3_stamps() -> Triplets {
    let circuit = fig3_chain_circuit(1.0e9);
    let x = operating_point(&circuit, &DcOptions::default())
        .expect("op")
        .into_unknowns();
    let mut assembler = Assembler::new(&circuit);
    let mut triplets = Triplets::new(circuit.dim());
    let mut rhs = Vec::new();
    assembler.assemble(&x, &EvalMode::dc(1.0e-12), &mut triplets, &mut rhs);
    triplets
}

fn bench_lu(c: &mut Harness) {
    let mut group = c.benchmark_group("lu");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for n in [40usize, 160, 640] {
        let t = chain_matrix(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        if n <= 160 {
            group.bench_with_input(format!("dense/{n}"), &t, |bench, t| {
                bench.iter(|| {
                    let mut m = DenseMatrix::from_triplets(t);
                    let perm = m.lu_factor().expect("nonsingular");
                    let mut rhs = b.clone();
                    m.lu_solve(&perm, &mut rhs);
                    rhs
                })
            });
        }
        group.bench_with_input(format!("sparse_gp/{n}"), &t, |bench, t| {
            bench.iter(|| {
                let a = SparseMatrix::from_triplets(t);
                let mut lu = SparseLu::new();
                lu.factor(&a).expect("nonsingular");
                let mut rhs = b.clone();
                lu.solve(&mut rhs).expect("factored");
                rhs
            })
        });
    }
    group.finish();
}

/// The headline comparison for DESIGN.md §3.2: repeated same-pattern
/// solves on the FIG3 chain stamps, seed path (sort + symbolic factor
/// every call) vs fast path (slot scatter + numeric refactor); and the
/// dense kernel's replayed refactorization (a cached solver) against its
/// full factorization (a fresh solver per call).
fn bench_refactor(c: &mut Harness) {
    let mut group = c.benchmark_group("refactor");
    group
        .sample_size(40)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let stamps = fig3_stamps();
    let n = stamps.dim();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();

    group.bench_function(format!("fig3_seed_path/{n}"), |bench| {
        bench.iter(|| {
            let a = SparseMatrix::from_triplets(&stamps);
            let mut lu = SparseLu::new();
            lu.factor(&a).expect("nonsingular");
            let mut rhs = b.clone();
            lu.solve(&mut rhs).expect("factored");
            rhs
        })
    });

    group.bench_function(format!("fig3_fast_path/{n}"), |bench| {
        let (map, mut a) = StampMap::build(&stamps);
        let mut lu = SparseLu::new();
        lu.factor(&a).expect("nonsingular");
        bench.iter(|| {
            assert!(map.scatter(&stamps, &mut a));
            lu.refactor(&a).expect("same pattern");
            let mut rhs = b.clone();
            lu.solve(&mut rhs).expect("factored");
            rhs
        })
    });

    group.bench_function(format!("fig3_dense_full/{n}"), |bench| {
        bench.iter(|| {
            let mut rhs = b.clone();
            DenseSolver::default()
                .solve_in_place(&stamps, &mut rhs)
                .expect("nonsingular");
            rhs
        })
    });

    group.bench_function(format!("fig3_dense_refactor/{n}"), |bench| {
        let mut solver = DenseSolver::default();
        bench.iter(|| {
            let mut rhs = b.clone();
            solver
                .solve_in_place(&stamps, &mut rhs)
                .expect("nonsingular");
            rhs
        })
    });

    group.finish();
}

/// Crossover data for the DENSE_CUTOFF recalibration: cached repeated
/// solves (the steady-state regime of a Newton loop) per kernel per size.
fn bench_cutoff(c: &mut Harness) {
    let mut group = c.benchmark_group("cutoff");
    group
        .sample_size(40)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for n in [20usize, 40, 60, 80, 120, 160] {
        let t = chain_matrix(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        group.bench_with_input(format!("dense_cached/{n}"), &t, |bench, t| {
            let mut solver = DenseSolver::default();
            bench.iter(|| {
                let mut rhs = b.clone();
                solver.solve_in_place(t, &mut rhs).expect("nonsingular");
                rhs
            })
        });
        group.bench_with_input(format!("sparse_cached/{n}"), &t, |bench, t| {
            let mut solver = spicier::linalg::sparse::SparseSolver::default();
            bench.iter(|| {
                let mut rhs = b.clone();
                solver.solve_in_place(t, &mut rhs).expect("nonsingular");
                rhs
            })
        });
    }
    // Real MNA stamps (denser than the chain matrix) at the actual
    // experiment-circuit size, so the cutoff choice reflects the
    // circuits the harness simulates, not just the synthetic chain.
    let stamps = fig3_stamps();
    let n = stamps.dim();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    group.bench_with_input(format!("dense_cached_fig3/{n}"), &stamps, |bench, t| {
        let mut solver = DenseSolver::default();
        bench.iter(|| {
            let mut rhs = b.clone();
            solver.solve_in_place(t, &mut rhs).expect("nonsingular");
            rhs
        })
    });
    group.bench_with_input(format!("sparse_cached_fig3/{n}"), &stamps, |bench, t| {
        let mut solver = spicier::linalg::sparse::SparseSolver::default();
        bench.iter(|| {
            let mut rhs = b.clone();
            solver.solve_in_place(t, &mut rhs).expect("nonsingular");
            rhs
        })
    });
    group.finish();
}

/// Structure-aware scaling (DESIGN.md §3.7): repeated cached solves of
/// the sparse kernel, always on its min-degree ordering, on the
/// generator-shaped chain matrix at 640/2560/10240 unknowns.
fn bench_scaling(c: &mut Harness) {
    use spicier::linalg::sparse::SparseSolver;
    let quick = quick_mode();
    let mut group = c.benchmark_group("scaling");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let dims: &[usize] = if quick {
        &[640, 2560]
    } else {
        &[640, 2560, 10240]
    };
    for &n in dims {
        let t = chain_matrix(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        group.bench_with_input(format!("ordered/{n}"), &t, |bench, t| {
            let mut solver = SparseSolver::default();
            bench.iter(|| {
                let mut rhs = b.clone();
                solver.solve_in_place(t, &mut rhs).expect("nonsingular");
                rhs
            })
        });
    }
    group.finish();
}

/// Telemetry overhead on the FIG3 refactor-solve pair (DESIGN.md §3.5):
/// `baseline` has no telemetry gate at all, `gated` adds the disabled
/// check exactly as the hot call sites write it (one relaxed atomic load
/// per solve), `traced` runs the same loop inside `with_trace` with the
/// event actually recorded. CI asserts `gated/baseline` stays under 2%.
fn bench_telemetry(c: &mut Harness) {
    let mut group = c.benchmark_group("telemetry");
    group
        .sample_size(60)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let stamps = fig3_stamps();
    let n = stamps.dim();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();

    group.bench_function(format!("fig3_refactor_baseline/{n}"), |bench| {
        let (map, mut a) = StampMap::build(&stamps);
        let mut lu = SparseLu::new();
        lu.factor(&a).expect("nonsingular");
        bench.iter(|| {
            assert!(map.scatter(&stamps, &mut a));
            lu.refactor(&a).expect("same pattern");
            let mut rhs = b.clone();
            lu.solve(&mut rhs).expect("factored");
            rhs
        })
    });

    group.bench_function(format!("fig3_refactor_gated/{n}"), |bench| {
        let (map, mut a) = StampMap::build(&stamps);
        let mut lu = SparseLu::new();
        lu.factor(&a).expect("nonsingular");
        bench.iter(|| {
            assert!(map.scatter(&stamps, &mut a));
            lu.refactor(&a).expect("same pattern");
            let mut rhs = b.clone();
            lu.solve(&mut rhs).expect("factored");
            if telemetry::enabled() {
                telemetry::event("bench_solve", &[("dim", n.into())]);
            }
            rhs
        })
    });

    group.bench_function(format!("fig3_refactor_traced/{n}"), |bench| {
        let (map, mut a) = StampMap::build(&stamps);
        let mut lu = SparseLu::new();
        lu.factor(&a).expect("nonsingular");
        telemetry::with_trace(|| {
            bench.iter(|| {
                assert!(map.scatter(&stamps, &mut a));
                lu.refactor(&a).expect("same pattern");
                let mut rhs = b.clone();
                lu.solve(&mut rhs).expect("factored");
                if telemetry::enabled() {
                    telemetry::event("bench_solve", &[("dim", n.into())]);
                }
                rhs
            })
        });
        telemetry::drain();
    });

    group.finish();
}

/// One Newton iteration of a transient step through a warm
/// `SolveWorkspace` (DESIGN.md §3.2), on the FIG3 chain and on the
/// FIG7/FIG8 detector-settling circuit at a mid-grid corner (1 GHz,
/// 2 kΩ pipe, 10 pF load). `<circuit>` assembles and solves,
/// `<circuit>_assemble` only assembles. Both replay the sealed stamp
/// program, as every iteration after a step's first does.
fn bench_newton_iter(c: &mut Harness) {
    let mut group = c.benchmark_group("newton_iter");
    group
        .sample_size(40)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let (fig8, _) =
        detector_circuit(2.0e3, DetectorLoad::diode_cap(10.0e-12), 1.0e9, None).expect("build");
    for (name, circuit) in [("fig3", fig3_chain_circuit(1.0e9)), ("fig8", fig8)] {
        let n = circuit.dim();
        let x = operating_point(&circuit, &DcOptions::default())
            .expect("op")
            .into_unknowns();
        let mode = EvalMode {
            integ: Integration::Step {
                method: Method::Trapezoidal,
                h: 1.0e-12,
            },
            time: 0.0,
            gmin: 1.0e-12,
            source_scale: 1.0,
        };
        let mut assembler = Assembler::new(&circuit);
        assembler.init_charges(&x);
        let mut ws = SolveWorkspace::for_circuit(&circuit);

        group.bench_function(format!("{name}/{n}"), |bench| {
            bench.iter(|| {
                assembler.assemble(&x, &mode, &mut ws.triplets, &mut ws.rhs);
                ws.solver
                    .solve_in_place(&ws.triplets, &mut ws.rhs)
                    .expect("nonsingular");
                ws.rhs[0]
            })
        });

        group.bench_function(format!("{name}_assemble/{n}"), |bench| {
            bench.iter(|| {
                assembler.assemble(&x, &mode, &mut ws.triplets, &mut ws.rhs);
                ws.rhs[0]
            })
        });
    }

    group.finish();
}

fn bench_circuit_kernels(c: &mut Harness) {
    let mut group = c.benchmark_group("circuit");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("dc_op_fig3_chain", |b| {
        let mut bld = CmlCircuitBuilder::new(CmlProcess::paper());
        let input = bld.diff("a");
        bld.drive_static("a", input, true).expect("build");
        bld.buffer_chain(&cml_cells::FIG3_NAMES, input)
            .expect("build");
        let circuit = bld.finish().compile().expect("compile");
        b.iter(|| operating_point(&circuit, &DcOptions::default()).expect("op"))
    });

    group.bench_function("tran_fig3_chain_1period", |b| {
        let freq = 1.0e9;
        let circuit = fig3_chain_circuit(freq);
        b.iter(|| transient(&circuit, &TranOptions::new(1.0 / freq)).expect("tran"))
    });

    group.finish();
}

fn main() {
    run_benches(&[
        ("bench_lu", bench_lu as fn(&mut Harness)),
        ("bench_refactor", bench_refactor as fn(&mut Harness)),
        ("bench_cutoff", bench_cutoff as fn(&mut Harness)),
        ("bench_scaling", bench_scaling as fn(&mut Harness)),
        ("bench_telemetry", bench_telemetry as fn(&mut Harness)),
        ("bench_newton_iter", bench_newton_iter as fn(&mut Harness)),
        (
            "bench_circuit_kernels",
            bench_circuit_kernels as fn(&mut Harness),
        ),
    ]);

    // Machine-readable results: per-bench medians plus derived metrics.
    let records = take_records();
    let find = |group: &str, prefix: &str| {
        records
            .iter()
            .find(|r| r.group == group && r.id.starts_with(prefix))
            .map(|r| r.median_ns as f64)
    };
    let seed = find("refactor", "fig3_seed_path/");
    let fast = find("refactor", "fig3_fast_path/");
    let mut metrics: Vec<(&str, f64)> = Vec::new();
    if let (Some(seed), Some(fast)) = (seed, fast) {
        metrics.push(("fig3_seed_solve_ns", seed));
        metrics.push(("fig3_refactor_solve_ns", fast));
        metrics.push(("fig3_refactor_speedup", seed / fast));
    }
    // The telemetry overhead ratios compare noise floors (min), not
    // medians: the disabled gate costs one relaxed load (~1 ns) against a
    // multi-µs solve, far below cross-run median jitter, and noise only
    // ever adds time.
    let find_min = |group: &str, prefix: &str| {
        records
            .iter()
            .find(|r| r.group == group && r.id.starts_with(prefix))
            .map(|r| r.min_ns as f64)
    };
    let base = find_min("telemetry", "fig3_refactor_baseline/");
    let gated = find_min("telemetry", "fig3_refactor_gated/");
    let traced = find_min("telemetry", "fig3_refactor_traced/");
    if let (Some(base), Some(gated)) = (base, gated) {
        // Disabled telemetry must stay invisible — CI gates on < 1.02.
        metrics.push(("telemetry_disabled_overhead", gated / base));
    }
    if let (Some(base), Some(traced)) = (base, traced) {
        metrics.push(("telemetry_traced_ratio", traced / base));
    }
    // Same noise-floor comparison for the dense replay: CI gates on
    // ≥ 1.0, so a replay that loses to a full factorization fails.
    let dense_full = find_min("refactor", "fig3_dense_full/");
    let dense_replay = find_min("refactor", "fig3_dense_refactor/");
    if let (Some(full), Some(replay)) = (dense_full, dense_replay) {
        metrics.push(("fig3_dense_refactor_speedup", full / replay));
    }
    // One FIG3 and one FIG8 Newton iteration and their assemblies:
    // recorded, not gated.
    for (prefix, key) in [
        ("fig3/", "fig3_newton_iter_ns"),
        ("fig3_assemble/", "fig3_assemble_ns"),
        ("fig8/", "fig8_newton_iter_ns"),
        ("fig8_assemble/", "fig8_assemble_ns"),
    ] {
        if let Some(v) = find("newton_iter", prefix) {
            metrics.push((key, v));
        }
    }
    let stamps = fig3_stamps();
    let (_, a) = StampMap::build(&stamps);
    let mut lu = SparseLu::new();
    lu.factor(&a).expect("nonsingular");
    metrics.push(("fig3_dim", stamps.dim() as f64));
    metrics.push(("fig3_matrix_nnz", a.nnz() as f64));
    metrics.push(("fig3_factor_nnz", lu.factor_nnz() as f64));
    metrics.push(("dense_cutoff", DENSE_CUTOFF as f64));

    // Structure-aware scaling trajectory (DESIGN.md §3.7): the ordered
    // repeated-solve medians at every measured size.
    let find_id = |group: &str, id: String| {
        records
            .iter()
            .find(|r| r.group == group && r.id == id)
            .map(|r| r.median_ns as f64)
    };
    if let Some(ord) = find_id("scaling", "ordered/640".to_string()) {
        metrics.push(("dim640_ordered_ns", ord));
    }
    for n in [2560usize, 10240] {
        if let Some(v) = find_id("scaling", format!("ordered/{n}")) {
            metrics.push(match n {
                2560 => ("ordered_2560_ns", v),
                _ => ("ordered_10240_ns", v),
            });
        }
    }

    // Crossover assertion for DENSE_CUTOFF (DESIGN.md §3.7): every
    // measured size above the cutoff must favor the cached sparse path,
    // and every size at or below it (the FIG3 stamps included) the cached
    // dense path, within measurement slack. Same-run ratios, so machine
    // speed cancels; quick mode gets a loose band because 100 ms sampling
    // is noisy.
    let slack = if quick_mode() { 2.0 } else { 1.3 };
    let fig3_dim = stamps.dim();
    let pairs = [20usize, 40, 60, 80, 120, 160]
        .map(|n| (n, format!("dense_cached/{n}"), format!("sparse_cached/{n}")));
    let fig3 = (
        fig3_dim,
        format!("dense_cached_fig3/{fig3_dim}"),
        format!("sparse_cached_fig3/{fig3_dim}"),
    );
    for (n, dense_id, sparse_id) in pairs.into_iter().chain([fig3]) {
        let dense = find_id("cutoff", dense_id);
        let sparse = find_id("cutoff", sparse_id);
        if let (Some(d), Some(s)) = (dense, sparse) {
            let (winner, loser, favored) = if n > DENSE_CUTOFF {
                (s, d, "sparse")
            } else {
                (d, s, "dense")
            };
            assert!(
                winner <= loser * slack,
                "DENSE_CUTOFF = {DENSE_CUTOFF} is off the measured crossover: cached dense \
                 {d:.0} ns vs sparse {s:.0} ns at dim {n} should favor {favored} (slack {slack})"
            );
        }
    }

    // Anchor at the workspace root: cargo runs benches with the package
    // directory as cwd, which would bury the report in crates/bench/.
    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench/BENCH_solver.json"
    ));
    match write_json_report(path, &records, &metrics) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
