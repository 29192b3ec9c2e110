//! Linear-system kernels used by the MNA solver.
//!
//! Circuit matrices are small (tens of unknowns for a single CML cell) to
//! medium (hundreds of unknowns for the 60-buffer load-sharing experiment of
//! the paper's Figure 14), very sparse (≈ 4–6 nonzeros per row) and need to
//! be factored thousands of times per transient run. Two kernels are
//! provided:
//!
//! * [`dense`]: LU with partial pivoting on a row-major dense matrix —
//!   simple, cache-friendly and used as the reference implementation and
//!   for systems below [`DENSE_CUTOFF`] unknowns;
//! * [`sparse`]: a left-looking Gilbert–Peierls LU with partial pivoting
//!   on compressed-sparse-column storage, used for larger systems.
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
/// dense kernel to the sparse kernel, calibrated against the cutoff bench
/// (`cargo bench -p cml-bench --bench solver -- cutoff`): with the
/// cached-pattern refactorization fast path the sparse kernel wins on
/// circuit-like sparsity at every measured size from 20 unknowns up —
/// including the assembled FIG3-chain stamps at 32 unknowns — so the
/// crossover sits at the bottom of the measured band. The bench asserts
/// this constant stays inside the measured crossover band, so a kernel
/// regression that moves the crossover shows up as a bench failure rather
/// than silent mis-selection.
///
/// Existing experiment pipelines do NOT use this value: they pin
/// [`EXPERIMENT_DENSE_CUTOFF`] instead, because moving circuits across
/// the cutoff changes which kernel's rounding they see and breaks
/// byte-stable baselines.
pub const DENSE_CUTOFF: usize = 20;

/// Kernel-selection threshold pinned by the experiment pipelines
/// (`SolveWorkspace`), frozen at the historical value of 80.
///
/// The measured performance crossover is [`DENSE_CUTOFF`] = 20, but
/// moving a circuit across the cutoff changes which kernel's rounding it
/// sees, and the adaptive transient step control amplifies that last-bit
/// difference into different time grids and recovery-ladder decisions
/// (observed on fig7/robustness artifacts), breaking byte-stable
/// experiment baselines. Analyses therefore construct their solver with
/// [`AutoSolver::with_cutoff`]`(EXPERIMENT_DENSE_CUTOFF)`. Lower this
/// only together with a deliberate baseline refresh.
pub const EXPERIMENT_DENSE_CUTOFF: usize = 80;

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

/// Chooses the dense kernel for small systems and the sparse kernel for
/// large ones; reuses workspace between calls.
#[derive(Debug)]
pub struct AutoSolver {
    dense: dense::DenseSolver,
    sparse: sparse::SparseSolver,
    last_quality: SolveQuality,
    cutoff: usize,
}

impl Default for AutoSolver {
    fn default() -> Self {
        Self::with_cutoff(DENSE_CUTOFF)
    }
}

impl AutoSolver {
    /// Creates a solver with empty workspaces and the measured
    /// [`DENSE_CUTOFF`] kernel-selection threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver that switches kernels at `cutoff` unknowns
    /// instead of [`DENSE_CUTOFF`]. The experiment pipelines pass
    /// [`EXPERIMENT_DENSE_CUTOFF`] to keep their baselines byte-stable.
    pub fn with_cutoff(cutoff: usize) -> Self {
        Self {
            dense: dense::DenseSolver::default(),
            sparse: sparse::SparseSolver::default(),
            last_quality: SolveQuality::default(),
            cutoff,
        }
    }

    /// The kernel-selection threshold this solver was built with.
    pub fn cutoff(&self) -> usize {
        self.cutoff
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
        if triplets.dim() <= self.cutoff {
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
