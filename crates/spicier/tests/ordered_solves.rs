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
//!   certify.

use spicier::chaos::with_perturb_lu;
use spicier::linalg::dense::DenseSolver;
use spicier::linalg::sparse::SparseSolver;
use spicier::linalg::verify::{backward_error, bwerr_tol, inf_norm};
use spicier::linalg::{Solver, SparseMatrix, Triplets};
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
        assert_eq!(ordered.stats().pattern_rebuilds, 1, "n={n}");
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
/// pattern with values that flip the partial-pivoting winner must abandon
/// the replay (counted in `pivot_fallbacks`), re-factor from scratch, and
/// still return the exact certified answer.
///
/// The value sets are chosen symmetric with equal off-diagonals, so the
/// flip survives *any* symmetric permutation the ordering may pick.
#[test]
fn pivot_flip_under_cached_permuted_pattern_takes_the_fallback() {
    let mut t1 = Triplets::new(2);
    t1.add(0, 0, 1.0);
    t1.add(1, 0, 10.0);
    t1.add(0, 1, 10.0);
    t1.add(1, 1, 1.0);
    // Same stamp sequence, diagonals and off-diagonals exchanged: the
    // column-0 pivot winner moves between rows.
    let mut t2 = Triplets::new(2);
    t2.add(0, 0, 10.0);
    t2.add(1, 0, 1.0);
    t2.add(0, 1, 1.0);
    t2.add(1, 1, 10.0);

    let mut solver = SparseSolver::default();
    // b = A1·[1, 1]ᵀ, so the exact answer is all-ones.
    let mut x1 = vec![11.0, 11.0];
    solver.solve_in_place(&t1, &mut x1).unwrap();
    assert_eq!(solver.stats().pivot_fallbacks, 0);
    assert!((x1[0] - 1.0).abs() < 1e-12 && (x1[1] - 1.0).abs() < 1e-12);

    let mut x2 = vec![11.0, 11.0];
    solver.solve_in_place(&t2, &mut x2).unwrap();
    let stats = solver.stats();
    assert_eq!(
        stats.pattern_rebuilds, 1,
        "second solve must reuse the cached permuted pattern"
    );
    assert_eq!(
        stats.pivot_fallbacks, 1,
        "the flipped pivot winner must abandon the cached replay"
    );
    assert!((x2[0] - 1.0).abs() < 1e-12 && (x2[1] - 1.0).abs() < 1e-12);
    assert!(solver.last_quality().backward_error <= bwerr_tol());
}
