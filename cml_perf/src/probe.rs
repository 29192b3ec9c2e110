//! Layer probe: replays one Newton iteration's stages — device evaluation
//! with junction limiting, MNA assembly, stamp scatter, factor /
//! refactor, triangular solve, certification — through the solver's
//! public APIs on a workload's circuits, and times each call.
//!
//! Attribution is a model, not an in-program measurement: a layer's share
//! of a workload is its probed per-call cost times the number of calls
//! the workload's analyses reported, divided by the workload's time.

use crate::counts::Counts;
use crate::report::Outcome;
use spicier::analysis::mna::{Assembler, EvalMode, Integration, Method, SolveWorkspace};
use spicier::devices::{pnjlim, BjtBatch};
use spicier::linalg::sparse::ORDERING_MIN_DIM;
use spicier::linalg::{
    order, verify, DenseMatrix, Solver, SparseLu, SparseMatrix, StampMap, Triplets,
};
use spicier::netlist::Element;
use spicier::{Circuit, DcSolution, VT_300K};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Largest system the dense kernel is probed on: above it a dense factor
/// costs far more than any path the solver actually takes.
const DENSE_PROBE_MAX_DIM: usize = 256;
/// Step size of the transient-mode assembly probe (a typical accepted
/// step on the paper's CML edges).
const PROBE_STEP_H: f64 = 1.0e-12;
/// Baseline gmin of the DC analyses.
const GMIN: f64 = 1.0e-12;

/// Per-call costs of each layer on one circuit, nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Costs {
    pub assemble_dc_ns: f64,
    pub assemble_step_ns: f64,
    pub bjt_eval_ns: f64,
    pub solve_in_place_ns: f64,
    pub dense: Option<(f64, f64)>,
    pub scatter_ns: f64,
    pub sparse_factor_ns: f64,
    pub sparse_refactor_ns: f64,
    pub sparse_solve_ns: f64,
    pub certify_ns: f64,
    pub fill_ratio: f64,
    /// Whether the analyses' workspace puts this circuit on the dense
    /// kernel.
    pub on_dense_kernel: bool,
}

/// Fastest of five batches' mean time per call of `f`, each batch long
/// enough (≥ 1 ms, or one call) to swamp the clock's resolution;
/// interference from other load only ever slows a batch.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().max(Duration::from_nanos(1));
    let reps = (Duration::from_millis(1).as_nanos() / one.as_nanos()).clamp(1, 100_000) as u32;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(reps)
        })
        .fold(f64::INFINITY, f64::min)
}

fn err(stage: &str, e: impl std::fmt::Display) -> String {
    format!("probe {stage}: {e}")
}

/// `out = b − A·x` on a CSC matrix.
fn residual(a: &SparseMatrix, b: &[f64], x: &[f64], out: &mut [f64]) {
    out.copy_from_slice(b);
    let (col_ptr, rows, vals) = (a.col_ptr(), a.rows(), a.vals());
    for (j, &xj) in x.iter().enumerate() {
        for k in col_ptr[j]..col_ptr[j + 1] {
            out[rows[k]] -= vals[k] * xj;
        }
    }
}

/// Probes every layer on `circuit` around its converged DC solution `op`.
pub fn probe(circuit: &Circuit, op: &DcSolution) -> Result<Costs, String> {
    let dim = circuit.dim();
    let x = op.unknowns();
    let mut asm = Assembler::new(circuit);
    let mut t = Triplets::new(dim);
    let mut rhs = Vec::new();

    // Assembly at the operating point, DC and transient-step modes; the
    // limiting memory starts at the point, as in a converging iteration.
    asm.reset_junctions(x);
    let dc_mode = EvalMode::dc(GMIN);
    let assemble_dc_ns = per_call_ns(|| asm.assemble(black_box(x), &dc_mode, &mut t, &mut rhs));
    let step_mode = EvalMode {
        integ: Integration::Step {
            method: Method::Trapezoidal,
            h: PROBE_STEP_H,
        },
        time: 0.0,
        gmin: GMIN,
        source_scale: 1.0,
    };
    asm.init_charges(x);
    let assemble_step_ns = per_call_ns(|| asm.assemble(black_box(x), &step_mode, &mut t, &mut rhs));
    // The linear stages below work on the DC system.
    asm.reset_junctions(x);
    asm.assemble(x, &dc_mode, &mut t, &mut rhs);

    // Device evaluation: junction limiting plus one batched SoA pass.
    let mut batch = BjtBatch::new();
    let mut junctions = Vec::new();
    for (_, e) in circuit.elements() {
        if let Element::Bjt {
            collector,
            base,
            emitter,
            model,
        } = e
        {
            batch.push_model(model);
            let s = model.polarity.sign();
            let vb = op.voltage(*base);
            junctions.push((
                s * (vb - op.voltage(*emitter)),
                s * (vb - op.voltage(*collector)),
                model.vcrit(),
            ));
        }
    }
    let mut last: Vec<(f64, f64)> = junctions.iter().map(|&(be, bc, _)| (be, bc)).collect();
    let bjt_eval_ns = per_call_ns(|| {
        for (lane, (&(vbe, vbc, vcrit), old)) in junctions.iter().zip(&mut last).enumerate() {
            let be = pnjlim(black_box(vbe), old.0, VT_300K, vcrit);
            let bc = pnjlim(black_box(vbc), old.1, VT_300K, vcrit);
            *old = (be, bc);
            batch.set_bias(lane, be, bc);
        }
        batch.eval_all();
        if !batch.is_empty() {
            black_box(batch.eval_of(0));
        }
    });

    // The path analyses take: the workspace's own kernel choice, cached
    // pattern, refactor and certification.
    let mut ws = SolveWorkspace::for_circuit(circuit);
    let on_dense_kernel = dim <= ws.solver.cutoff();
    let mut r = rhs.clone();
    let mut solve_err = None;
    let solve_in_place_ns = per_call_ns(|| {
        r.copy_from_slice(&rhs);
        if let Err(e) = ws.solver.solve_in_place(&t, &mut r) {
            solve_err = Some(e);
        }
    });
    if let Some(e) = solve_err {
        return Err(err("solve_in_place", e));
    }

    let dense = if dim <= DENSE_PROBE_MAX_DIM {
        let m0 = DenseMatrix::from_triplets(&t);
        let copy_ns = per_call_ns(|| {
            black_box(m0.clone());
        });
        let factor_ns = per_call_ns(|| {
            let mut m = m0.clone();
            black_box(m.lu_factor().ok());
        }) - copy_ns;
        let mut m = m0.clone();
        let perm = m.lu_factor().map_err(|e| err("dense factor", e))?;
        let solve_ns = per_call_ns(|| {
            r.copy_from_slice(&rhs);
            m.lu_solve(&perm, &mut r);
        });
        Some((factor_ns.max(0.0), solve_ns))
    } else {
        None
    };

    // Sparse kernel, fill-reducing order where the solver arms it.
    let (map, mut a) = if dim >= ORDERING_MIN_DIM {
        let natural = SparseMatrix::from_triplets(&t);
        let pinv = order::min_degree_pinv(dim, natural.col_ptr(), natural.rows());
        StampMap::build_permuted(&t, &pinv)
    } else {
        StampMap::build(&t)
    };
    let scatter_ns = per_call_ns(|| {
        black_box(map.scatter(&t, &mut a));
    });
    let mut lu = SparseLu::new();
    let mut lu_err = None;
    let sparse_factor_ns = per_call_ns(|| {
        if let Err(e) = lu.factor(&a) {
            lu_err = Some(e);
        }
    });
    let sparse_refactor_ns = per_call_ns(|| {
        if let Err(e) = lu.refactor(&a) {
            lu_err = Some(e);
        }
    });
    if let Some(e) = lu_err {
        return Err(err("sparse factor", e));
    }
    let sparse_solve_ns = per_call_ns(|| {
        r.copy_from_slice(&rhs);
        black_box(lu.solve(&mut r).ok());
    });
    let fill_ratio = lu.factor_nnz() as f64 / a.nnz().max(1) as f64;

    let mut sol = rhs.clone();
    lu.solve(&mut sol).map_err(|e| err("sparse solve", e))?;
    let (norm_inf, norm_1) = a.norms();
    let mut cert_err = None;
    let certify_ns = per_call_ns(|| {
        r.copy_from_slice(&sol);
        let q = verify::certify_in_place(
            &mut r,
            &rhs,
            norm_inf,
            norm_1,
            |x, out| residual(&a, &rhs, x, out),
            |v| lu.solve(v),
            |v| lu.solve_transposed(v),
        );
        if let Err(e) = q {
            cert_err = Some(e);
        }
    });
    if let Some(e) = cert_err {
        return Err(err("certify", e));
    }

    Ok(Costs {
        assemble_dc_ns,
        assemble_step_ns,
        bjt_eval_ns,
        solve_in_place_ns,
        dense,
        scatter_ns,
        sparse_factor_ns,
        sparse_refactor_ns,
        sparse_solve_ns,
        certify_ns,
        fill_ratio,
        on_dense_kernel,
    })
}

/// Modelled seconds of linear-solve work for `n`'s counts on a circuit
/// with per-call costs `c`: the kernel the analyses' workspace picks,
/// full factors, refactor attempts (a pivot fallback is charged a whole
/// refactor before its full factor) and triangular solves at their
/// probed costs, plus one scatter and one certification per Newton
/// iteration.
fn linear_s(c: &Costs, n: &Counts) -> f64 {
    let lu = &n.lu;
    let newton = n.newton() as f64;
    let kernel_ns = match (c.on_dense_kernel, c.dense) {
        (true, Some((factor, solve))) => lu.full_factors as f64 * factor + lu.solves as f64 * solve,
        (true, None) => newton * (c.solve_in_place_ns - c.certify_ns),
        (false, _) => {
            lu.full_factors as f64 * c.sparse_factor_ns
                + (lu.refactors + lu.pivot_fallbacks) as f64 * c.sparse_refactor_ns
                + lu.solves as f64 * c.sparse_solve_ns
                + newton * c.scatter_ns
        }
    };
    (kernel_ns + newton * c.certify_ns) * 1e-9
}

/// Newton-weighted means of every probed per-call cost over a workload's
/// circuits, and the attribution shares against `busy_s`, the time those
/// counts took (a timed replay of the ops, or CPU seconds of a campaign
/// pass).
pub fn push_layer_metrics(items: &[(Costs, Counts)], busy_s: f64, out: &mut Outcome) {
    let n = items.len();
    let total_newton: f64 = items.iter().map(|(_, c)| c.newton() as f64).sum();
    let weight = |c: &Counts| {
        if total_newton > 0.0 {
            c.newton() as f64 / total_newton
        } else {
            1.0 / n.max(1) as f64
        }
    };
    let mean =
        |f: &dyn Fn(&Costs) -> f64| -> f64 { items.iter().map(|(k, c)| weight(c) * f(k)).sum() };
    let assemble_s: f64 = items
        .iter()
        .map(|(k, c)| {
            (c.dc_newton as f64 * k.assemble_dc_ns + c.tran_newton as f64 * k.assemble_step_ns)
                * 1e-9
        })
        .sum();
    let solve_s: f64 = items.iter().map(|(k, c)| linear_s(k, c)).sum();
    // Dense figures average over the circuits small enough to probe.
    let dense: Vec<(f64, (f64, f64))> = items
        .iter()
        .filter_map(|(k, c)| k.dense.map(|d| (weight(c), d)))
        .collect();
    let dense_w = dense.iter().map(|(w, _)| w).sum::<f64>();
    let dense_mean = |f: fn((f64, f64)) -> f64| {
        if dense_w > 0.0 {
            dense.iter().map(|(w, d)| w * f(*d)).sum::<f64>() / dense_w
        } else {
            0.0
        }
    };
    let share = |s: f64| if busy_s > 0.0 { s / busy_s } else { 0.0 };
    let assemble_ns = if total_newton > 0.0 {
        assemble_s * 1e9 / total_newton
    } else {
        0.0
    };

    out.push("mna.assemble_ns", assemble_ns, n);
    out.push("devices.bjt_eval_ns", mean(&|k| k.bjt_eval_ns), n);
    out.push(
        "linalg.solve_in_place_ns",
        mean(&|k| k.solve_in_place_ns),
        n,
    );
    out.push(
        "linalg.dense_ratio",
        mean(&|k| f64::from(u8::from(k.on_dense_kernel))),
        n,
    );
    out.push("dense.factor_ns", dense_mean(|d| d.0), dense.len());
    out.push("dense.solve_ns", dense_mean(|d| d.1), dense.len());
    out.push("sparse.scatter_ns", mean(&|k| k.scatter_ns), n);
    out.push("sparse.factor_ns", mean(&|k| k.sparse_factor_ns), n);
    out.push("sparse.refactor_ns", mean(&|k| k.sparse_refactor_ns), n);
    out.push("sparse.solve_ns", mean(&|k| k.sparse_solve_ns), n);
    out.push("sparse.fill_ratio", mean(&|k| k.fill_ratio), n);
    out.push("verify.certify_ns", mean(&|k| k.certify_ns), n);
    out.push("share.assemble", share(assemble_s), n);
    out.push("share.linear_solve", share(solve_s), n);
    out.push(
        "share.residual",
        1.0 - share(assemble_s) - share(solve_s),
        n,
    );
}
