//! Property tests of the solution-trust layer (seeded, deterministic —
//! see `xrand`).
//!
//! Two families:
//!
//! * randomized well-conditioned MNA-shaped systems must be solved by the
//!   dense kernel, the sparse kernel, and the cached-pattern
//!   refactorization fast path to answers that agree within their
//!   certified backward error;
//! * the `CHAOS_PERTURB_LU` drill — a silently corrupted factorization —
//!   must surface [`spicier::Error::UntrustedSolution`] from every entry
//!   point (raw kernels, the DC operating point, fault-isolated sweeps),
//!   never a clean exit with wrong numbers.

use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::analysis::sweep::{par_try_map, SweepFailure, TryMapOptions};
use spicier::chaos::with_perturb_lu;
use spicier::linalg::dense::DenseSolver;
use spicier::linalg::sparse::SparseSolver;
use spicier::linalg::verify::{backward_error, bwerr_tol, inf_norm};
use spicier::linalg::{Solver, SparseLu, SparseMatrix, Triplets, DENSE_CUTOFF};
use spicier::netlist::Netlist;
use xrand::StdRng;

/// A random connected conductance network on `n` unknowns: a chain
/// backbone plus random extra branches. Only the edge list is returned;
/// [`stamp_network`] draws fresh conductances for it, so two stampings of
/// the same edge list share their sparsity pattern exactly (the stamp
/// sequence is identical) while differing in every value — the shape the
/// cached-pattern refactorization fast path is built for.
fn random_edges(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    for _ in 0..rng.gen_range(n..3 * n) {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            edges.push((i, j));
        }
    }
    edges
}

/// Stamps `edges` as two-terminal conductances plus a per-node ground
/// leak, exactly like MNA assembly of a resistor network: the result is
/// symmetric, strictly diagonally dominant, and therefore comfortably
/// well-conditioned.
fn stamp_network(rng: &mut StdRng, n: usize, edges: &[(usize, usize)]) -> Triplets {
    let mut t = Triplets::new(n);
    for i in 0..n {
        t.add(i, i, rng.gen_range(1.0e-4..1.0e-2));
    }
    for &(i, j) in edges {
        let g = rng.gen_range(1.0e-3..1.0e-1);
        t.add(i, i, g);
        t.add(j, j, g);
        t.add(i, j, -g);
        t.add(j, i, -g);
    }
    t
}

fn random_rhs(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0e-2..1.0e-2)).collect()
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

/// The dense and sparse kernels must certify every solve of a random
/// well-conditioned MNA-shaped system and agree with each other to far
/// better than the certification tolerance, on both sides of the
/// dense/sparse cutoff.
#[test]
fn dense_and_sparse_kernels_agree_within_certified_error() {
    let mut rng = StdRng::seed_from_u64(0xbe44e5);
    let tol = bwerr_tol();
    for n in [12, 40, DENSE_CUTOFF + 10, DENSE_CUTOFF + 45] {
        for _ in 0..6 {
            let edges = random_edges(&mut rng, n);
            let t = stamp_network(&mut rng, n, &edges);
            let b = random_rhs(&mut rng, n);

            let mut xd = b.clone();
            let mut dense = DenseSolver::default();
            dense.solve_in_place(&t, &mut xd).unwrap();
            assert!(
                dense.last_quality().backward_error <= tol,
                "dense certification failed at n={n}: {:?}",
                dense.last_quality()
            );

            let mut xs = b.clone();
            let mut sparse = SparseSolver::default();
            sparse.solve_in_place(&t, &mut xs).unwrap();
            assert!(
                sparse.last_quality().backward_error <= tol,
                "sparse certification failed at n={n}: {:?}",
                sparse.last_quality()
            );

            // Both kernels' measured residuals back the certificates up.
            assert!(measured_bwerr(&t, &xd, &b) <= tol, "dense residual n={n}");
            assert!(measured_bwerr(&t, &xs, &b) <= tol, "sparse residual n={n}");

            let diff = rel_diff(&xd, &xs);
            assert!(
                diff < 1.0e-8,
                "kernels disagree at n={n}: relative diff {diff:.3e}"
            );
        }
    }
}

/// The cached-pattern refactorization fast path must produce the same
/// certified answers as a from-scratch dense solve when the values change
/// under a fixed sparsity pattern — the exact shape Newton iterations and
/// same-topology sweeps feed it.
#[test]
fn refactorization_path_agrees_with_dense_within_certified_error() {
    let mut rng = StdRng::seed_from_u64(0x5eed1e);
    let tol = bwerr_tol();
    for n in [25, 60, DENSE_CUTOFF + 25] {
        let edges = random_edges(&mut rng, n);
        let t0 = stamp_network(&mut rng, n, &edges);
        let mut lu = SparseLu::new();
        lu.factor(&SparseMatrix::from_triplets(&t0)).unwrap();
        // Re-stamp the same pattern with fresh values several times; every
        // refactorization must stay as trustworthy as the first factor.
        for round in 0..4 {
            let t = stamp_network(&mut rng, n, &edges);
            let b = random_rhs(&mut rng, n);
            lu.refactor(&SparseMatrix::from_triplets(&t)).unwrap();
            let mut xr = b.clone();
            lu.solve(&mut xr).unwrap();

            let mut xd = b.clone();
            DenseSolver::default().solve_in_place(&t, &mut xd).unwrap();

            let bwerr = measured_bwerr(&t, &xr, &b);
            assert!(
                bwerr <= tol,
                "refactor solve uncertifiable at n={n} round={round}: {bwerr:.3e}"
            );
            let diff = rel_diff(&xr, &xd);
            assert!(
                diff < 1.0e-8,
                "refactor vs dense disagree at n={n} round={round}: {diff:.3e}"
            );
        }
    }
}

/// Builds a small resistive test circuit (dense-kernel sized).
fn divider() -> spicier::Circuit {
    let mut nl = Netlist::new();
    let vin = nl.node("vin");
    let out = nl.node("out");
    nl.vdc("V1", vin, Netlist::GROUND, 3.3).unwrap();
    nl.resistor("R1", vin, out, 1.0e3).unwrap();
    nl.resistor("R2", out, Netlist::GROUND, 2.0e3).unwrap();
    nl.compile().unwrap()
}

/// The certifier drill: with `CHAOS_PERTURB_LU` corrupting one pivot of
/// every completed factorization, the raw kernels must return
/// `UntrustedSolution` — never a clean exit with wrong numbers.
#[test]
fn chaos_perturb_lu_is_caught_by_both_kernels() {
    let mut rng = StdRng::seed_from_u64(0xc4a05);
    for n in [30, DENSE_CUTOFF + 20] {
        let edges = random_edges(&mut rng, n);
        let t = stamp_network(&mut rng, n, &edges);
        let b = random_rhs(&mut rng, n);
        for (kernel, result) in [
            (
                "dense",
                with_perturb_lu(|| DenseSolver::default().solve_in_place(&t, &mut b.clone())),
            ),
            (
                "sparse",
                with_perturb_lu(|| SparseSolver::default().solve_in_place(&t, &mut b.clone())),
            ),
        ] {
            let err = result.expect_err(kernel);
            assert!(
                err.is_untrusted_solution(),
                "{kernel} kernel at n={n}: expected UntrustedSolution, got {err}"
            );
            assert!(err.is_non_retriable(), "{kernel} at n={n}");
        }
    }
}

/// The drill seen from the analysis layer: a DC operating point computed
/// through a corrupted factorization must fail with `UntrustedSolution`
/// immediately — the recovery ladder must not retry it into a false
/// convergence.
#[test]
fn chaos_perturb_lu_surfaces_untrusted_operating_point() {
    let circuit = divider();
    // Sanity: the clean solve certifies and reports a healthy residual.
    let op = operating_point(&circuit, &DcOptions::default()).unwrap();
    assert!(op.quality().backward_error <= bwerr_tol());

    let err = with_perturb_lu(|| operating_point(&circuit, &DcOptions::default()))
        .expect_err("corrupted factorization must not yield a clean operating point");
    assert!(err.is_untrusted_solution(), "got: {err}");
    let msg = err.to_string();
    assert!(msg.starts_with("untrusted solution"), "{msg}");
}

/// The drill seen from a sweep: a corner whose solves run under
/// `CHAOS_PERTURB_LU` is quarantined (recorded as
/// [`SweepFailure::Untrusted`]), while its healthy
/// neighbours are unaffected.
#[test]
fn chaos_perturb_lu_corner_is_quarantined_in_sweeps() {
    let corners: Vec<usize> = (0..4).collect();
    let opts = TryMapOptions {
        max_workers: Some(2),
        ..TryMapOptions::default()
    };
    let (results, report) = par_try_map(corners, &opts, |&k| {
        let circuit = divider();
        let solve = || operating_point(&circuit, &DcOptions::default());
        let op = if k == 2 {
            with_perturb_lu(solve)
        } else {
            solve()
        }?;
        Ok(op.voltage(circuit.netlist().find_node("out").unwrap()))
    });
    assert_eq!(report.total, 4);
    assert_eq!(report.succeeded, 3);
    assert_eq!(report.quarantined(), 1);
    assert!(results[2].is_none());
    for (k, r) in results.iter().enumerate() {
        if k != 2 {
            assert!((r.unwrap() - 2.2).abs() < 1e-6);
        }
    }
    let failure = &report.failures[0];
    assert_eq!(failure.index, 2);
    assert!(matches!(failure.failure, SweepFailure::Untrusted { .. }));
    assert!(failure.failure.to_string().starts_with("quarantined:"));
    assert!(
        report.summary().contains("1 quarantined"),
        "{}",
        report.summary()
    );
}
