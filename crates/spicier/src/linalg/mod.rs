//! Linear-system kernels used by the MNA solver.
//!
//! Circuit matrices are small (tens of unknowns for a single CML cell) to
//! medium (hundreds of unknowns for the 60-buffer load-sharing experiment of
//! the paper's Figure 14), very sparse (≈ 4–6 nonzeros per row) and need to
//! be factored thousands of times per transient run. Two kernels are
//! provided:
//!
//! * [`dense`]: LU with partial pivoting on a row-major dense matrix, used
//!   for systems of up to [`DENSE_CUTOFF`] unknowns and, in the natural
//!   order ([`DenseMatrix::lu_factor`]), as the reference implementation;
//!   its solver factors on the fill-reducing [`order`]ing of the pattern
//!   and replays recorded eliminations over the structural nonzeros, one
//!   per pivot order a stamp pattern has settled in, bit-identical to a
//!   full factorization of the ordered matrix;
//! * [`sparse`]: a left-looking Gilbert–Peierls LU with threshold partial
//!   pivoting on compressed-sparse-column storage, used for larger systems, on the
//!   same ordering, with a cached-pattern numeric refactorization.
//!
//! Both kernels implement [`Solver`], and [`AutoSolver`] picks between them
//! by size. The sparse kernel is property-tested against the dense one.
//! Both take the system as the slots of a [`Triplets`] stamp program, so
//! they factor the same assembled matrix, and cache their compilation of
//! its keys under the program's id.
//!
//! **Singular pivots.** Both kernels judge a pivot by one rule, in one
//! place (`judge_pivot`). A pivot at or above the absolute
//! `PIVOT_FLOOR` is accepted at once, so a solve that never meets a
//! smaller one runs exactly as under the floor alone. A smaller pivot is
//! singular when it is an exact zero or under `PIVOT_RELATIVE` times its
//! column's scale: the largest magnitude any of the column's candidate
//! entries would have if no elimination update that formed it had
//! cancelled. A pivot far under that is what cancellation left at the
//! rounding level; a pivot that is merely small — the product of cut-off
//! transistors' gains, far under the floor at a cold start's first
//! iterates — is exact to working precision and accepted. Only the cold
//! path computes the scale.
//!
//! **Pivot choice.** The dense kernel pivots strictly (the column's
//! largest candidate). The sparse kernel uses threshold partial pivoting
//! with `PIVOT_THRESHOLD` τ: a factorization takes the ordering's
//! diagonal and a refactorization keeps its stored pivot while either is
//! at least τ of the column's largest candidate, so far-off Newton
//! iterates keep the low-fill order and the cached plan. Certification is
//! the guard: a solve whose threshold-pivoted factors fail it is factored
//! again strictly (τ = 1).

pub mod complex;
pub mod dense;
pub mod order;
mod program;
pub mod sparse;
pub mod verify;

pub use complex::Complex;
pub use dense::DenseMatrix;
pub use program::Triplets;
pub(crate) use program::{fresh_id, merge_slots, Compiled, MergeScratch, ProgramKey};
pub use sparse::{LuStats, PivotFallback, SparseLu, SparseMatrix, StampMap};
pub use verify::SolveQuality;

use crate::error::Error;

/// Unknown-count threshold above which [`AutoSolver`] switches from the
/// dense kernel to the sparse kernel.
///
/// Calibrated against the cutoff bench (`cargo bench -p cml-bench --bench
/// solver -- cutoff`): with its replayed refactorization on the
/// minimum-degree ordering, the dense kernel beats the cached sparse path
/// on real MNA stamps at every size the paper's circuits use (the FIG3
/// chain and Figure 14 shared detectors up to N = 60, 195 unknowns), and
/// on the synthetic chain the sparse kernel wins from about 200 unknowns
/// up. The bench asserts the crossover stays at this constant, so a
/// kernel regression that moves it shows up as a bench failure rather
/// than silent mis-selection.
pub const DENSE_CUTOFF: usize = 200;

/// Pivot magnitude at and above which either kernel accepts a pivot
/// without looking at its column: the fast gate of the singular test
/// (SPICE3's default `PIVTOL`). Only a pivot under it is judged by
/// [`PIVOT_RELATIVE`].
const PIVOT_FLOOR: f64 = 1e-13;

/// A pivot under [`PIVOT_FLOOR`] is singular when it is an exact zero or
/// under this multiple of ε times its column's scale, the magnitude its
/// candidate entries would have without cancellation: `c·ε` with `c` =
/// 2⁶.
///
/// An MNA system holds gmin (1e-12 S) beside 1 S conductances, and a
/// cold start's first iterates cut whole chains of transistors off, so
/// pivots of 1e-20 and less are common and exact to working precision.
/// What is singular is a pivot that cancellation left at the rounding
/// level of the terms it was formed from; `c` leaves room for the few
/// roundings of an elimination. On the deep-chain and shared-detector
/// cold starts the verdicts are the same for every `c` from 2⁴ to 2¹⁰.
/// Every solve is certified by its backward error anyway, so this test
/// guards against dividing by rounding noise, not against inaccuracy.
const PIVOT_RELATIVE: f64 = 64.0 * f64::EPSILON;

/// τ of the sparse kernel's threshold partial pivoting: a preferred pivot
/// (the ordering's diagonal in a full factorization, the stored pivot in
/// a refactorization) is taken whenever its magnitude is at least this
/// fraction of the column's largest candidate. Growth per step stays
/// bounded by `1 / τ`. Measured at 1e-3, 1e-2, 0.1 and 1: 1e-3 and 1e-2
/// read the same fill on wide circuits of 296 and 392 unknowns (1.56,
/// against 1.79), and the `dc` benchmark's `p99_ms` and `wall_s` within
/// 1.5%, both below 0.1 and 1; 1e-2 keeps the growth bound at 100 and the
/// 240-unknown shared detector's cold start off pseudo-transient.
const PIVOT_THRESHOLD: f64 = 0.01;

/// The singular test on a pivot the fast gate let through, `mag` under
/// [`PIVOT_FLOOR`]: an error when `mag` is zero or under
/// [`PIVOT_RELATIVE`] times the column's `scale`, which only this cold
/// path computes.
///
/// # Errors
///
/// [`Error::SingularMatrix`] naming `column`, the pivot and the scale.
#[cold]
#[inline(never)]
fn judge_pivot(mag: f64, column: usize, scale: impl FnOnce() -> f64) -> Result<(), Error> {
    let scale = scale();
    if mag == 0.0 || mag < PIVOT_RELATIVE * scale {
        return Err(Error::SingularMatrix {
            column,
            pivot: mag,
            scale,
        });
    }
    Ok(())
}

/// A linear solver for `A x = b` where `A` is assembled from triplets.
pub trait Solver {
    /// Factors the matrix and solves in place: on entry `rhs` is `b`, on
    /// exit it is `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when a column has no acceptable
    /// pivot (see [`PIVOT_RELATIVE`]).
    fn solve_in_place(&mut self, triplets: &Triplets, rhs: &mut [f64]) -> Result<(), Error>;
}

/// Chooses the dense kernel for systems of up to [`DENSE_CUTOFF`]
/// unknowns and the sparse kernel above; reuses workspace between calls.
#[derive(Debug, Default)]
pub struct AutoSolver {
    dense: dense::DenseSolver,
    sparse: sparse::SparseSolver,
    last_quality: SolveQuality,
}

impl AutoSolver {
    /// Creates a solver with empty workspaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// The kernel-selection threshold: [`DENSE_CUTOFF`].
    pub fn cutoff(&self) -> usize {
        DENSE_CUTOFF
    }

    /// Certification record of the most recent successful solve
    /// (see [`verify::SolveQuality`]).
    pub fn last_quality(&self) -> SolveQuality {
        self.last_quality
    }

    /// Merged kernel counters from whichever kernels this solver has
    /// used so far (dense at or below the cutoff, sparse above).
    /// Telemetry snapshots this before and after an analysis and
    /// reports the delta.
    pub fn stats(&self) -> LuStats {
        let mut stats = self.dense.stats();
        stats.absorb(&self.sparse.stats());
        stats
    }
}

impl Solver for AutoSolver {
    fn solve_in_place(&mut self, triplets: &Triplets, rhs: &mut [f64]) -> Result<(), Error> {
        if triplets.dim() <= DENSE_CUTOFF {
            self.dense.solve_in_place(triplets, rhs)?;
            self.last_quality = self.dense.last_quality();
        } else {
            self.sparse.solve_in_place(triplets, rhs)?;
            self.last_quality = self.sparse.last_quality();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_triplets(n: usize) -> Triplets {
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 2.1);
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
        }
        t
    }

    /// Solves `entries · x = b` (every entry times `scale`) on the dense
    /// and the sparse kernel.
    fn both_kernels(
        entries: &[(usize, usize, f64)],
        scale: f64,
        b: &[f64],
    ) -> [Result<Vec<f64>, Error>; 2] {
        let mut t = Triplets::new(b.len());
        for &(r, c, v) in entries {
            t.add(r, c, v * scale);
        }
        let solve = |solver: &mut dyn Solver| {
            let mut x = b.to_vec();
            solver.solve_in_place(&t, &mut x).map(|()| x)
        };
        [
            solve(&mut dense::DenseSolver::default()),
            solve(&mut sparse::SparseSolver::default()),
        ]
    }

    /// The pivot and scale of a singular verdict.
    fn verdict(result: &Result<Vec<f64>, Error>) -> Option<(f64, f64)> {
        match result {
            Err(Error::SingularMatrix { pivot, scale, .. }) => Some((*pivot, *scale)),
            Err(e) => panic!("not a singular verdict: {e}"),
            Ok(_) => None,
        }
    }

    /// `[[1, 1], [1, 1 + ε]]` at `2^-60`: its second pivot is what
    /// cancellation leaves of `1 + ε − 1`, at the rounding level of its
    /// column and far under the floor at every scale tested below.
    fn remnant() -> Vec<(usize, usize, f64)> {
        let s = 2f64.powi(-60);
        vec![
            (0, 0, s),
            (0, 1, s),
            (1, 0, s),
            (1, 1, (1.0 + f64::EPSILON) * s),
        ]
    }

    /// A pivot of 1e-20 in a column whose largest entry is 1e-6, left by
    /// an elimination that cancels nothing beyond a factor of two.
    fn tiny_pivot() -> Vec<(usize, usize, f64)> {
        vec![(0, 0, 1e-6), (0, 1, 1e-6), (1, 0, 1e-20), (1, 1, 2e-20)]
    }

    #[test]
    fn exact_zeros_and_cancellation_remnants_are_singular_on_both_kernels() {
        let exact_zero = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)];
        for (label, entries) in [("exact zero", exact_zero.to_vec()), ("remnant", remnant())] {
            for result in both_kernels(&entries, 1.0, &[1.0, 1.0]) {
                let (pivot, scale) = verdict(&result)
                    .unwrap_or_else(|| panic!("{label}: factored a singular matrix"));
                assert!(pivot < PIVOT_FLOOR, "{label}: {pivot:e}");
                assert!(pivot == 0.0 || pivot < PIVOT_RELATIVE * scale, "{label}");
                assert!(result.unwrap_err().to_string().contains("column scale"));
            }
        }
        // The remnant is a full ulp of its column, not an exact zero.
        let [dense, _] = both_kernels(&remnant(), 1.0, &[1.0, 1.0]);
        let (pivot, scale) = verdict(&dense).unwrap();
        assert!(
            pivot > 0.0 && pivot / scale < 2.0 * f64::EPSILON,
            "{pivot:e} / {scale:e}"
        );
    }

    #[test]
    fn a_tiny_pivot_of_a_tiny_column_is_accepted() {
        // b = A·[1, 1]ᵀ.
        let b = [2e-6, 3e-20];
        for result in both_kernels(&tiny_pivot(), 1.0, &b) {
            let x = result.expect("a pivot exact to working precision");
            assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-12), "{x:?}");
        }
    }

    #[test]
    fn scaling_by_powers_of_two_keeps_every_verdict_and_every_bit() {
        let mna = vec![
            (0, 0, 1e-3 + 1e-12),
            (0, 1, -1e-3),
            (1, 0, -1e-3),
            (1, 1, 1e-3 + 4e-2),
            (1, 2, 1.0),
            (2, 1, 1.0),
        ];
        let exact_zero = vec![(0, 0, 3.0), (0, 1, 1.5), (1, 0, 2.0), (1, 1, 1.0)];
        let b = [0.25, -1.5, 3.0];
        for entries in [mna, exact_zero, remnant(), tiny_pivot()] {
            let n = 1 + entries.iter().map(|&(r, c, _)| r.max(c)).max().unwrap();
            let b = &b[..n];
            let unscaled = both_kernels(&entries, 1.0, b);
            for exponent in [-40, 40] {
                let s = 2f64.powi(exponent);
                let scaled = both_kernels(&entries, s, b);
                for (kernel, (a, z)) in ["dense", "sparse"].iter().zip(unscaled.iter().zip(&scaled))
                {
                    let label = format!("{kernel} 2^{exponent} {entries:?}");
                    match (a, z) {
                        // A = s·A₀ solves to x₀ / s, bit for bit.
                        (Ok(x), Ok(y)) => {
                            let y: Vec<u64> = y.iter().map(|v| (v * s).to_bits()).collect();
                            let x: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(x, y, "{label}");
                        }
                        (Err(_), Err(_)) => {
                            let ((p, c), (q, d)) = (verdict(a).unwrap(), verdict(z).unwrap());
                            assert_eq!((p * s, c * s), (q, d), "{label}");
                        }
                        _ => panic!("{label}: {a:?} vs {z:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn auto_solver_matches_on_both_sides_of_cutoff() {
        for n in [DENSE_CUTOFF - 1, DENSE_CUTOFF + 5] {
            let t = laplacian_triplets(n);
            let mut rhs: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
            let expected = {
                let mut d = dense::DenseSolver::default();
                let mut r = rhs.clone();
                d.solve_in_place(&t, &mut r).unwrap();
                r
            };
            let mut auto = AutoSolver::new();
            auto.solve_in_place(&t, &mut rhs).unwrap();
            for (a, b) in rhs.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-10, "{a} vs {b}");
            }
        }
    }
}
