//! Linear-system kernels used by the MNA solver.
//!
//! Circuit matrices are small (tens of unknowns for a single CML cell) to
//! medium (hundreds of unknowns for the 60-buffer load-sharing experiment of
//! the paper's Figure 14), very sparse (≈ 4–6 nonzeros per row) and need to
//! be factored thousands of times per transient run. Two kernels are
//! provided:
//!
//! * [`dense`]: LU with partial pivoting on a row-major dense matrix, used
//!   for systems of up to [`DENSE_CUTOFF`] unknowns and as the reference
//!   implementation; once a stamp pattern's pivot order settles it replays
//!   a recorded elimination over the structural nonzeros, bit-identical
//!   to a full factorization;
//! * [`sparse`]: a left-looking Gilbert–Peierls LU with partial pivoting
//!   on compressed-sparse-column storage, used for larger systems, always
//!   on a fill-reducing [`order`]ing of the pattern, with a cached-pattern
//!   numeric refactorization.
//!
//! Both kernels implement [`Solver`], and [`AutoSolver`] picks between them
//! by size. The sparse kernel is property-tested against the dense one.

pub mod complex;
pub mod dense;
pub mod order;
pub mod sparse;
pub mod verify;

pub use complex::{Complex, ComplexDenseMatrix};
pub use dense::DenseMatrix;
pub use sparse::{LuStats, PivotFallback, SolverStats, SparseLu, SparseMatrix, StampMap, Triplets};
pub use verify::SolveQuality;

use crate::error::Error;

/// Unknown-count threshold above which [`AutoSolver`] switches from the
/// dense kernel to the sparse kernel.
///
/// Calibrated against the cutoff bench (`cargo bench -p cml-bench --bench
/// solver -- cutoff`): with its replayed refactorization the dense kernel
/// beats the cached sparse path on real MNA stamps at every size the
/// paper's circuits use (buffer chains and shared detectors, up to 72
/// unknowns), and the sparse kernel wins above. The bench
/// asserts the crossover stays at this constant, so a kernel regression
/// that moves it shows up as a bench failure rather than silent
/// mis-selection.
pub const DENSE_CUTOFF: usize = 80;

/// A linear solver for `A x = b` where `A` is assembled from triplets.
pub trait Solver {
    /// Factors the matrix and solves in place: on entry `rhs` is `b`, on
    /// exit it is `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when a pivot underflows.
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
        stats.absorb(&self.sparse.lu_stats());
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
