//! Property tests of the structure-aware solver paths (seeded,
//! deterministic — see `xrand`).
//!
//! Two families:
//!
//! * the sparse kernel, which always factors on a fill-reducing ordering,
//!   must produce the same certified answers as the dense kernel on
//!   randomized MNA-shaped systems, across pattern rebuilds and
//!   value-only refactorizations;
//! * the `CHAOS_PERTURB_LU` drill on the *permuted* path: a corrupted
//!   factorization behind a fill-reducing permutation must still surface
//!   [`spicier::Error::UntrustedSolution`], and a pivot flip under a
//!   cached permuted pattern must take the refactor fallback and still
//!   certify;
//! * the dense kernel, which factors on the same ordering, must agree
//!   with the natural-order `DenseMatrix::lu_factor` within certified
//!   backward error, and must declare no system singular that the
//!   natural order factors.

use spicier::chaos::with_perturb_lu;
use spicier::linalg::dense::DenseSolver;
use spicier::linalg::order::min_degree_pinv;
use spicier::linalg::sparse::SparseSolver;
use spicier::linalg::verify::{backward_error, bwerr_tol, inf_norm};
use spicier::linalg::{DenseMatrix, Solver, SparseMatrix, Triplets, DENSE_CUTOFF};
use spicier::telemetry::{self, Value};
use spicier::Error;
use xrand::StdRng;

/// A random connected conductance network on `n` unknowns (chain backbone
/// plus random extra branches); same construction as `verified_solves`.
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
/// leak: symmetric, strictly diagonally dominant, well-conditioned — and
/// with a stamp sequence that depends only on the edge list, so re-stamping
/// the same edges with fresh values exercises the cached-pattern
/// (scatter + refactor) fast path of every solver variant.
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

/// The ordered (fill-reducing permuted) path must certify every solve of
/// a random MNA-shaped system and agree with the dense kernel, on the
/// first factorization and across value-only refactorizations of the
/// same cached pattern.
#[test]
fn ordered_path_agrees_with_dense_kernel_within_certified_error() {
    let mut rng = StdRng::seed_from_u64(0x0de4ed);
    let tol = bwerr_tol();
    for n in [30, 90, 250] {
        let edges = random_edges(&mut rng, n);
        let mut dense = DenseSolver::default();
        let mut ordered = SparseSolver::default();
        // Round 0 builds the pattern (and the permutation); later rounds
        // must ride the permuted scatter + refactor fast path.
        for round in 0..4 {
            let t = stamp_network(&mut rng, n, &edges);
            let b = random_rhs(&mut rng, n);

            let mut xd = b.clone();
            dense.solve_in_place(&t, &mut xd).unwrap();

            let mut xo = b.clone();
            ordered.solve_in_place(&t, &mut xo).unwrap();
            assert!(
                ordered.last_quality().backward_error <= tol,
                "ordered certification failed at n={n} round={round}: {:?}",
                ordered.last_quality()
            );

            assert!(
                measured_bwerr(&t, &xo, &b) <= tol,
                "ordered residual n={n} round={round}"
            );
            let diff = rel_diff(&xd, &xo);
            assert!(
                diff < 1.0e-8,
                "ordered vs dense disagree at n={n} round={round}: {diff:.3e}"
            );
        }
        // All later rounds reused the cached permuted pattern.
        assert_eq!(ordered.pattern_rebuilds(), 1, "n={n}");
    }
}

/// `CHAOS_PERTURB_LU` on the permuted path: corrupting a pivot of the
/// fill-reduced factorization must surface `UntrustedSolution` — the
/// permutation must not hide the corruption from the certifier.
#[test]
fn chaos_perturb_lu_is_caught_on_the_permuted_path() {
    let mut rng = StdRng::seed_from_u64(0xcafe0d);
    for n in [40, 150] {
        let edges = random_edges(&mut rng, n);
        let t = stamp_network(&mut rng, n, &edges);
        let b = random_rhs(&mut rng, n);
        let mut solver = SparseSolver::default();
        let err = with_perturb_lu(|| solver.solve_in_place(&t, &mut b.clone()))
            .expect_err("corrupted permuted factorization must not certify");
        assert!(
            err.is_untrusted_solution(),
            "ordered path at n={n}: expected UntrustedSolution, got {err}"
        );
        assert!(err.is_non_retriable(), "n={n}");
        // The drill must not poison the solver: the next clean solve on
        // the same cached pattern certifies again.
        let mut x = b.clone();
        solver.solve_in_place(&t, &mut x).unwrap();
        assert!(solver.last_quality().backward_error <= bwerr_tol());
    }
}

/// Pivot-fallback drill on the permuted path: re-stamping a cached
/// pattern with values that leave the stored pivot under the pivot
/// threshold must abandon the replay (counted in `pivot_fallbacks`),
/// re-factor from scratch, and still return the exact certified answer.
///
/// The value sets are chosen symmetric with equal off-diagonals, so the
/// flip survives *any* symmetric permutation the ordering may pick: the
/// diagonal, a thousandth of the off-diagonal, is under any τ up to 0.1
/// in the first set, and the stored off-diagonal pivot under τ of the
/// diagonal in the second.
#[test]
fn pivot_flip_under_cached_permuted_pattern_takes_the_fallback() {
    let mut t1 = Triplets::new(2);
    t1.add(0, 0, 1.0);
    t1.add(1, 0, 1000.0);
    t1.add(0, 1, 1000.0);
    t1.add(1, 1, 1.0);
    // Same stamp sequence, diagonals and off-diagonals exchanged: the
    // stored column-0 pivot falls to a thousandth of the diagonal.
    let mut t2 = Triplets::new(2);
    t2.add(0, 0, 1000.0);
    t2.add(1, 0, 1.0);
    t2.add(0, 1, 1.0);
    t2.add(1, 1, 1000.0);

    let mut solver = SparseSolver::default();
    // b = A1·[1, 1]ᵀ, so the exact answer is all-ones.
    let mut x1 = vec![1001.0, 1001.0];
    solver.solve_in_place(&t1, &mut x1).unwrap();
    assert_eq!(solver.stats().pivot_fallbacks, 0);
    assert!((x1[0] - 1.0).abs() < 1e-12 && (x1[1] - 1.0).abs() < 1e-12);

    let mut x2 = vec![1001.0, 1001.0];
    solver.solve_in_place(&t2, &mut x2).unwrap();
    let stats = solver.stats();
    assert_eq!(
        solver.pattern_rebuilds(),
        1,
        "second solve must reuse the cached permuted pattern"
    );
    assert_eq!(
        stats.pivot_fallbacks, 1,
        "the flipped pivot winner must abandon the cached replay"
    );
    assert!((x2[0] - 1.0).abs() < 1e-12 && (x2[1] - 1.0).abs() < 1e-12);
    assert!(solver.last_quality().backward_error <= bwerr_tol());
}

/// A random MNA-shaped system on `nodes` nodes: [`stamp_network`]'s
/// conductances, a voltage source from each node of `sources` to ground
/// (a branch unknown whose row and column hold only the ±1 incidence and
/// a zero diagonal, so partial pivoting must leave the diagonal), and a
/// transconductance on each of `gm` (an asymmetric stamp).
fn mna_system(
    rng: &mut StdRng,
    nodes: usize,
    edges: &[(usize, usize)],
    sources: &[usize],
    gm: &[(usize, usize)],
) -> Triplets {
    let network = stamp_network(rng, nodes, edges);
    let mut t = Triplets::new(nodes + sources.len());
    for &(r, c, v) in network.entries() {
        t.add(r, c, v);
    }
    for (k, &node) in sources.iter().enumerate() {
        t.add(node, nodes + k, 1.0);
        t.add(nodes + k, node, 1.0);
    }
    for &(out, ctl) in gm {
        t.add(out, ctl, rng.gen_range(-2.0e-3..2.0e-3));
    }
    t
}

/// The dense kernel's ordered solves, fresh and replayed, certify and
/// agree with the natural-order `lu_factor` + `lu_solve` on random
/// MNA-shaped systems of up to [`DENSE_CUTOFF`] unknowns.
#[test]
fn ordered_dense_solve_agrees_with_natural_lu_factor_within_certified_error() {
    let mut rng = StdRng::seed_from_u64(0x0de45e);
    let tol = bwerr_tol();
    for nodes in [10, 34, 110, DENSE_CUTOFF - 8] {
        let edges = random_edges(&mut rng, nodes);
        // Distinct nodes: two sources on one node would be singular.
        let count = rng.gen_range(1..9);
        let sources: Vec<usize> = (0..count).map(|k| k * nodes / count).collect();
        let gm: Vec<(usize, usize)> = (0..nodes / 4)
            .map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes)))
            .collect();
        let mut dense = DenseSolver::default();
        for round in 0..5 {
            let t = mna_system(&mut rng, nodes, &edges, &sources, &gm);
            let n = t.dim();
            assert!(n <= DENSE_CUTOFF);
            let b = random_rhs(&mut rng, n);
            let mut xo = b.clone();
            dense.solve_in_place(&t, &mut xo).unwrap();
            let mut natural = DenseMatrix::from_triplets(&t);
            let perm = natural.lu_factor().unwrap();
            let mut xn = b.clone();
            natural.lu_solve(&perm, &mut xn);
            let label = format!("n={n} round={round}");
            assert!(
                dense.last_quality().backward_error <= tol,
                "{label}: {:?}",
                dense.last_quality()
            );
            for (path, x) in [("ordered", &xo), ("natural", &xn)] {
                let bwerr = measured_bwerr(&t, x, &b);
                assert!(bwerr <= tol, "{label}: {path} residual {bwerr:.3e}");
            }
            let diff = rel_diff(&xo, &xn);
            assert!(diff < 1.0e-8, "{label}: ordered vs natural {diff:.3e}");
        }
        assert!(dense.stats().refactors > 0, "nodes={nodes}: no replay");
    }
}

/// A system whose ordered elimination meets a pivot the relative rule
/// calls singular is rechecked in the natural order and solved, and its
/// `dense_solve` event says `path = "natural"`; a structurally singular
/// one is still `SingularMatrix`.
#[test]
fn sub_floor_ordered_pivot_takes_the_natural_recheck() {
    // Node 1 couples to node 0 only, so the minimum-degree order is 1, 0,
    // 2. The matrix is singular but for 2⁻⁴⁵ on its last diagonal. The
    // ordered elimination's last pivot comes out at 1.5e-15, under 64·ε of
    // the 0.107 its column's entries would reach uncancelled; the natural
    // order rounds the same cancellation to 2.8e-14 of its column's, over
    // the rule. So the ordered factorization fails and the natural one
    // factors.
    let mut t = Triplets::new(3);
    for (r, c, v) in [
        (0, 0, -0.25),
        (0, 1, -1.75),
        (0, 2, 0.75),
        (1, 1, -0.125),
        (2, 0, -0.125),
        (2, 2, 0.375 * (1.0 + 2f64.powi(-45))),
    ] {
        t.add(r, c, v);
    }
    let ordered = SparseMatrix::from_triplets(&t);
    let pinv = min_degree_pinv(3, ordered.col_ptr(), ordered.rows());
    assert_eq!(pinv, [1, 0, 2]);
    let mut permuted = DenseMatrix::zeros(3);
    for &(r, c, v) in t.entries() {
        permuted.add(pinv[r], pinv[c], v);
    }
    let err = permuted.lu_factor().unwrap_err();
    assert!(
        matches!(err, Error::SingularMatrix { column: 2, pivot, .. } if pivot > 0.0),
        "{err}"
    );
    let b = [1.0, 2.0, 3.0];
    let mut natural = DenseMatrix::from_triplets(&t);
    let perm = natural.lu_factor().expect("the natural order factors it");
    let mut xn = b.to_vec();
    natural.lu_solve(&perm, &mut xn);
    let mut solver = DenseSolver::default();
    for round in 0..3 {
        let mut x = b.to_vec();
        solver
            .solve_in_place(&t, &mut x)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&xn), "round {round}");
        assert!(solver.last_quality().backward_error <= bwerr_tol());
    }
    // One full factorization per solve, and no replay.
    let stats = solver.stats();
    assert_eq!((stats.full_factors, stats.refactors), (3, 0));
    // The flight recorder names the recheck.
    let events = telemetry::with_trace(|| {
        {
            let _span = telemetry::span("natural_recheck");
            DenseSolver::default()
                .solve_in_place(&t, &mut b.to_vec())
                .unwrap();
        }
        telemetry::drain()
    });
    let paths: Vec<_> = events
        .iter()
        .filter(|e| e.name == "dense_solve" && e.span.contains("natural_recheck"))
        .flat_map(|e| e.fields.iter().filter(|(k, _)| k == "path"))
        .map(|(_, v)| v)
        .collect();
    assert_eq!(paths, [&Value::Str("natural".into())]);

    // Column 2 holds no stamp: singular in every order.
    let mut singular = Triplets::new(3);
    for (r, c, v) in [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0), (2, 0, 1.0)] {
        singular.add(r, c, v);
    }
    let err = DenseSolver::default()
        .solve_in_place(&singular, &mut [1.0; 3])
        .unwrap_err();
    assert!(matches!(err, Error::SingularMatrix { .. }), "{err}");
}
