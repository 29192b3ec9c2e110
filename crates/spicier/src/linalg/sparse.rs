//! Sparse LU factorization (left-looking Gilbert–Peierls with threshold
//! partial pivoting) on compressed-sparse-column storage.
//!
//! The algorithm follows Davis' CSparse `cs_lu`: for each column, the
//! nonzero pattern of the triangular solve is discovered with a depth-first
//! reachability search over the partially built `L`, the numeric values are
//! computed in topological order, and the pivot row is the diagonal when
//! it holds at least τ of the largest-magnitude candidate among
//! not-yet-pivotal rows, and that candidate otherwise (CSparse's `tol`,
//! KLU's and Sparse 1.3's relative threshold).
//!
//! The kernel reads a system as slots, as the dense kernel does: one value
//! per distinct `(row, col)`, summed from +0.0 in emission order (see
//! [`Triplets`]). A sealed stamp program arrives as its slots, and a pushed
//! system is merged into them first, so the compressed matrix is the one
//! the dense kernel assembles, bit for bit, and compressing it sums
//! nothing.

// Index-based loops are kept in these numeric kernels: the indices are
// the mathematical objects (pivot rows, column positions).
#![allow(clippy::needless_range_loop)]

use super::order::{min_degree_order, symmetric_adjacency};
use super::{
    judge_pivot, merge_slots, verify, verify::SolveQuality, Compiled, MergeScratch, Solver,
    Triplets, DENSE_CUTOFF, PIVOT_FLOOR, PIVOT_THRESHOLD,
};
use crate::error::Error;

/// Smallest system [`AutoSolver`](super::AutoSolver) hands to the sparse
/// kernel, which factors every system on a fill-reducing ordering: there
/// is one size policy, dense up to [`DENSE_CUTOFF`] unknowns and ordered
/// sparse above, and both kernels eliminate on the same minimum-degree
/// order.
///
/// Natural order is not near-optimal there: at far-from-converged Newton
/// iterates partial pivoting picks pivots whose fill (factor nonzeros ÷
/// matrix nonzeros) grows with the circuit, 5.6× at 104 unknowns and 35×
/// at 584–776 on the worst solve of a cold-start operating point, against
/// at most 1.8× ordered.
pub const ORDERING_MIN_DIM: usize = DENSE_CUTOFF + 1;

/// An immutable compressed-sparse-column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseMatrix {
    /// Compresses triplets into CSC form: the matrix of
    /// [`StampMap::build`], whose values are the system's slots.
    pub fn from_triplets(triplets: &Triplets) -> Self {
        StampMap::build(triplets).1
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Column-pointer array of the CSC pattern (`dim() + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index of each stored nonzero, column-major.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Value of each stored nonzero, parallel to [`rows`](Self::rows).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Computes `(‖A‖∞, ‖A‖₁)` — the max row and column absolute sums —
    /// in one pass over the stored nonzeros.
    pub fn norms(&self) -> (f64, f64) {
        self.norms_with(&mut Vec::new())
    }

    /// [`norms`](Self::norms) with caller-owned row-sum scratch, so the
    /// solver's per-solve path allocates nothing.
    pub(crate) fn norms_with(&self, row_sums: &mut Vec<f64>) -> (f64, f64) {
        row_sums.clear();
        row_sums.resize(self.n, 0.0);
        let mut one = 0.0f64;
        for c in 0..self.n {
            let mut col_sum = 0.0;
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                let a = self.vals[p].abs();
                col_sum += a;
                row_sums[self.rows[p]] += a;
            }
            one = one.max(col_sum);
        }
        (row_sums.iter().fold(0.0f64, |m, &s| m.max(s)), one)
    }

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y = vec![0.0; self.n];
        for c in 0..self.n {
            let xc = x[c];
            if xc == 0.0 {
                continue;
            }
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                y[self.rows[p]] += self.vals[p] * xc;
            }
        }
        y
    }
}

/// The sparse kernel's compilation of a stamp program: the CSC position
/// of each of its slots.
///
/// A [`Triplets`] program keeps its `(row, col)` keys for as long as its
/// circuit and mode pattern stay fixed; only the values change, and its
/// slots are duplicate-free. [`build_permuted`](Self::build_permuted)
/// sorts the slots into column-major order once and records where each
/// lands. [`scatter`](Self::scatter) then refreshes a cached
/// [`SparseMatrix`]'s values with one assignment per slot, without
/// sorting or reallocating, so the refreshed matrix is bit-identical to
/// one built from scratch. A pushed system is merged into slots first.
#[derive(Debug, Clone)]
pub struct StampMap {
    /// The system the map was built for.
    compiled: Compiled,
    /// CSC position of each slot, in slot order.
    positions: Vec<u32>,
}

impl StampMap {
    /// Builds the slot map for the stamp sequence in `triplets` and returns
    /// it together with the compressed matrix, in natural order: the
    /// identity permutation's [`build_permuted`](Self::build_permuted).
    /// No solve calls it; the sparse kernel always builds on its
    /// fill-reducing ordering.
    ///
    /// # Panics
    ///
    /// Panics if the system has more than `u32::MAX` rows or slots.
    pub fn build(triplets: &Triplets) -> (Self, SparseMatrix) {
        let identity: Vec<usize> = (0..triplets.dim()).collect();
        Self::build_permuted(triplets, &identity)
    }

    /// Builds a slot map for the stamp sequence in `triplets` whose
    /// compressed matrix is the **symmetrically permuted**
    /// `A'[pinv[r], pinv[c]] = A[r, c]`, for a fill-reducing ordering
    /// `pinv` (see [`order::min_degree_pinv`](super::order::min_degree_pinv)).
    ///
    /// The map's keys stay in *original* coordinates, so
    /// [`matches`](Self::matches) and [`scatter`](Self::scatter) work
    /// unchanged on the stamp sequence — every Newton iteration scatters
    /// straight into the permuted CSC matrix with zero extra per-iteration
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics if `pinv` is not a `dim()`-sized permutation, or if the
    /// system exceeds `u32::MAX` rows or slots.
    pub fn build_permuted(triplets: &Triplets, pinv: &[usize]) -> (Self, SparseMatrix) {
        let mut merged = MergeScratch::default();
        Self::compile(triplets, slots_of(triplets, &mut merged), pinv)
    }

    /// [`build_permuted`](Self::build_permuted) on `triplets`' `slots`.
    fn compile(
        triplets: &Triplets,
        slots: &[(usize, usize, f64)],
        pinv: &[usize],
    ) -> (Self, SparseMatrix) {
        let n = triplets.dim();
        assert_eq!(pinv.len(), n, "permutation length mismatch");
        assert!(n <= u32::MAX as usize, "dimension too large");
        assert!(slots.len() <= u32::MAX as usize, "too many slots");
        // The slots are distinct, so the sort has no ties.
        let mut sorted: Vec<(usize, usize, u32)> = slots
            .iter()
            .enumerate()
            .map(|(slot, &(r, c, _))| (pinv[c], pinv[r], slot as u32))
            .collect();
        sorted.sort_unstable();
        let mut col_ptr = vec![0usize; n + 1];
        let mut rows = Vec::with_capacity(sorted.len());
        let mut vals = Vec::with_capacity(sorted.len());
        let mut positions = vec![0u32; sorted.len()];
        for &(c, r, slot) in &sorted {
            positions[slot as usize] = rows.len() as u32;
            rows.push(r);
            vals.push(slots[slot as usize].2);
            col_ptr[c + 1] += 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut compiled = Compiled::default();
        compiled.compile(triplets);
        (
            Self {
                compiled,
                positions,
            },
            SparseMatrix {
                n,
                col_ptr,
                rows,
                vals,
            },
        )
    }

    /// Whether `triplets` still carries the stamp sequence this map was
    /// built for (same dimension, same `(row, col)` keys in the same
    /// order): the program id it was built on vouches for them.
    pub fn matches(&self, triplets: &Triplets) -> bool {
        self.compiled.matches(triplets)
    }

    /// Rewrites `matrix`'s values from `triplets`, reproducing
    /// [`SparseMatrix::from_triplets`] bit-for-bit. Returns `false` (and
    /// leaves `matrix` untouched) when the stamp sequence no longer matches
    /// this map and the caller must rebuild.
    pub fn scatter(&self, triplets: &Triplets, matrix: &mut SparseMatrix) -> bool {
        if !self.matches(triplets) || matrix.nnz() != self.positions.len() {
            return false;
        }
        let mut merged = MergeScratch::default();
        self.scatter_slots(slots_of(triplets, &mut merged), matrix);
        true
    }

    /// Writes each of `slots` to its CSC position in `matrix`: the slots
    /// must be those of the system this map was built for, and `matrix`
    /// must belong to this map.
    fn scatter_slots(&self, slots: &[(usize, usize, f64)], matrix: &mut SparseMatrix) {
        for (&at, &(.., v)) in self.positions.iter().zip(slots) {
            matrix.vals[at as usize] = v;
        }
    }
}

/// `triplets`' slots: a sealed program's own, or a pushed system merged
/// into `merged`.
fn slots_of<'a>(triplets: &'a Triplets, merged: &'a mut MergeScratch) -> &'a [(usize, usize, f64)] {
    match triplets.slots() {
        Some(slots) => slots,
        None => {
            merge_slots(triplets.dim(), triplets.entries(), merged);
            &merged.slots
        }
    }
}

/// Growable CSC used for the `L` and `U` factors during factorization.
#[derive(Debug, Clone, Default)]
struct FactorCsc {
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<f64>,
}

impl FactorCsc {
    fn with_dim(n: usize) -> Self {
        Self {
            col_ptr: Vec::with_capacity(n + 1),
            rows: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn begin(&mut self) {
        self.col_ptr.clear();
        self.col_ptr.push(0);
        self.rows.clear();
        self.vals.clear();
    }

    fn push(&mut self, row: usize, val: f64) {
        self.rows.push(row);
        self.vals.push(val);
    }

    fn end_column(&mut self) {
        self.col_ptr.push(self.rows.len());
    }
}

/// Running counters for the factorization fast paths of both kernels
/// (`SparseLu::refactor` and the dense kernel's replayed elimination).
/// Every factorization counts once, as either a full factor or a
/// refactor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LuStats {
    /// Full factorizations: first use, pattern change, a pivot order not
    /// cached (dense: recorded once two consecutive full factorizations
    /// pick it), or a pivot-degradation fallback.
    pub full_factors: usize,
    /// Numeric-only refactorizations that reused the cached pattern and
    /// a recorded pivot order to the end. A dense replay that switched
    /// between cached pivot orders on the way counts here.
    pub refactors: usize,
    /// Refactorizations handed to the full elimination mid-replay because
    /// pivoting now chose a pivot no cached order has (the dense kernel
    /// caches several orders under strict partial pivoting; the sparse
    /// kernel keeps one, until its stored pivot falls under the pivot
    /// threshold); each also counts as a full factor. For the sparse
    /// kernel, [`SparseLu::last_pivot_fallback`] gives the triggering
    /// ratio.
    pub pivot_fallbacks: usize,
    /// Triangular solves applied against the factors (Newton steps,
    /// refinement re-solves, and condition-estimator probes alike).
    pub solves: usize,
}

impl LuStats {
    /// Adds `other`'s counters into `self` (used by the telemetry
    /// rollup and by [`AutoSolver::stats`](crate::linalg::AutoSolver::stats)
    /// to merge the dense and sparse kernels).
    pub fn absorb(&mut self, other: &LuStats) {
        self.full_factors += other.full_factors;
        self.refactors += other.refactors;
        self.pivot_fallbacks += other.pivot_fallbacks;
        self.solves += other.solves;
    }

    /// Counters accumulated since `earlier` was snapshotted from the
    /// same solver.
    ///
    /// Counters are strictly monotone over a solver's lifetime, so each
    /// component of the delta must be non-negative; a snapshot taken from
    /// a *different* solver (or after a counter reset) would silently
    /// clamp to zero under saturating arithmetic and mask regressions in
    /// telemetry rollups. Debug and checked builds therefore assert
    /// monotonicity; release builds still saturate rather than wrap so a
    /// violated precondition degrades to an undercount, never a garbage
    /// near-`usize::MAX` rollup.
    #[must_use]
    pub fn delta_since(&self, earlier: &LuStats) -> LuStats {
        debug_assert!(
            self.full_factors >= earlier.full_factors
                && self.refactors >= earlier.refactors
                && self.pivot_fallbacks >= earlier.pivot_fallbacks
                && self.solves >= earlier.solves,
            "non-monotone LuStats snapshot: now {self:?}, earlier {earlier:?} \
             (snapshots must come from the same live solver)"
        );
        LuStats {
            full_factors: self.full_factors.saturating_sub(earlier.full_factors),
            refactors: self.refactors.saturating_sub(earlier.refactors),
            pivot_fallbacks: self.pivot_fallbacks.saturating_sub(earlier.pivot_fallbacks),
            solves: self.solves.saturating_sub(earlier.solves),
        }
    }
}

impl std::fmt::Display for LuStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} full factors, {} refactors, {} pivot fallbacks, {} solves",
            self.full_factors, self.refactors, self.pivot_fallbacks, self.solves
        )
    }
}

/// Account of the most recent pivot-degradation fallback inside
/// [`SparseLu::refactor`]: which column abandoned the cached replay, and
/// by how much the stored pivot had degraded relative to the column's
/// largest candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PivotFallback {
    /// Column at which the replay was abandoned.
    pub column: usize,
    /// Row the cached symbolic analysis pivoted on.
    pub stored_row: usize,
    /// Row of the column's largest candidate (`usize::MAX` when the whole
    /// column collapsed to zero).
    pub winning_row: usize,
    /// `|largest candidate| / |stored pivot|` at the fallback point — how
    /// many times larger the column's largest candidate was than the
    /// stored choice (`∞` when the stored pivot's value had collapsed to
    /// zero). A fallback on a kept order reads above `1 / τ`.
    pub ratio: f64,
}

impl std::fmt::Display for PivotFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pivot fallback at column {}: stored row {} degraded {:.3e}x vs row {}",
            self.column,
            self.stored_row,
            self.ratio,
            if self.winning_row == usize::MAX {
                "(none)".to_string()
            } else {
                self.winning_row.to_string()
            }
        )
    }
}

/// LU factors `P A = L U` with the row permutation stored as `pinv`
/// (`pinv[original_row] = pivoted_row`), by threshold partial pivoting:
/// a full factorization takes the diagonal of column `k` whenever it is
/// at least τ (`PIVOT_THRESHOLD`) of the column's largest candidate, and a
/// refactorization keeps the stored pivot under the same test. On a
/// symmetrically ordered matrix the diagonal is the ordering's pivot.
#[derive(Debug, Default)]
pub struct SparseLu {
    n: usize,
    lower: FactorCsc,
    upper: FactorCsc,
    pinv: Vec<isize>,
    // Workspaces reused across factorizations.
    work_x: Vec<f64>,
    work_xi: Vec<usize>,
    work_stack: Vec<usize>,
    work_pstack: Vec<usize>,
    work_marked: Vec<bool>,
    // Symbolic state captured by `factor` and replayed by `refactor`:
    // the A pattern it was computed for, the per-column elimination
    // sequences (reverse-topological reach), the pivot row of each column,
    // and L's row indices in original (unpivoted) coordinates.
    sym_valid: bool,
    sym_a_col_ptr: Vec<usize>,
    sym_a_rows: Vec<usize>,
    sym_xi: Vec<usize>,
    sym_xi_ptr: Vec<usize>,
    sym_pivot: Vec<usize>,
    sym_lower_rows: Vec<usize>,
    stats: LuStats,
    /// The next factorization pivots strictly (τ = 1).
    strict: bool,
    /// Some pivot of the current factors is not its column's largest
    /// candidate.
    relaxed: bool,
    /// Triangular-solve count, atomic because [`SparseLu::solve`] and
    /// [`SparseLu::solve_transposed`] take `&self` (they are called
    /// through shared borrows inside the residual certifier).
    solves: std::sync::atomic::AtomicUsize,
    last_pivot_fallback: Option<PivotFallback>,
}

impl SparseLu {
    /// Creates an empty factorization workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn resize(&mut self, n: usize) {
        self.n = n;
        self.work_x.clear();
        self.work_x.resize(n, 0.0);
        self.work_marked.clear();
        self.work_marked.resize(n, false);
        self.pinv.clear();
        self.pinv.resize(n, -1);
        self.lower = FactorCsc::with_dim(n);
        self.upper = FactorCsc::with_dim(n);
    }

    /// Factors `a`, overwriting any previous factorization.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when no acceptable pivot exists in
    /// some column.
    pub fn factor(&mut self, a: &SparseMatrix) -> Result<(), Error> {
        self.relaxed = false;
        self.resize(a.dim());
        self.lower.begin();
        self.upper.begin();
        self.sym_xi.clear();
        self.sym_xi_ptr.clear();
        self.sym_xi_ptr.push(0);
        self.sym_pivot.clear();
        self.factor_from(a, 0)
    }

    /// [`factor`](Self::factor) by strict partial pivoting (τ = 1): every
    /// pivot is its column's largest candidate, the diagonal on a tie.
    /// The retry of a solve whose threshold-pivoted factors failed
    /// certification.
    fn factor_strict(&mut self, a: &SparseMatrix) -> Result<(), Error> {
        self.strict = true;
        let factored = self.factor(a);
        self.strict = false;
        factored
    }

    /// The pivot threshold τ of the next factorization.
    fn threshold(&self) -> f64 {
        if self.strict {
            1.0
        } else {
            PIVOT_THRESHOLD
        }
    }

    /// Runs the column loop of [`factor`](Self::factor) from column
    /// `from` to the end. The factors, the symbolic state and `pinv` must
    /// hold exactly what a factorization of `a` leaves after its first
    /// `from` columns, with `L`'s rows in original coordinates and the
    /// workspaces clean.
    fn factor_from(&mut self, a: &SparseMatrix, from: usize) -> Result<(), Error> {
        let n = a.dim();
        let tau = self.threshold();
        self.sym_valid = false;
        for k in from..n {
            // ----- symbolic: pattern of x = L \ A[:, k] via DFS reach -----
            self.work_xi.clear();
            for p in a.col_ptr[k]..a.col_ptr[k + 1] {
                let i = a.rows[p];
                if !self.work_marked[i] {
                    self.dfs_reach(i);
                }
            }
            // `work_xi` now holds the reach in reverse-topological order;
            // process it back-to-front for a topological sweep.

            // ----- numeric: scatter A[:, k] then eliminate -----
            for p in a.col_ptr[k]..a.col_ptr[k + 1] {
                self.work_x[a.rows[p]] += a.vals[p];
            }
            for idx in (0..self.work_xi.len()).rev() {
                let i = self.work_xi[idx];
                let piv = self.pinv[i];
                if piv < 0 {
                    continue;
                }
                let xi_val = self.work_x[i];
                if xi_val == 0.0 {
                    continue;
                }
                let col = piv as usize;
                // Skip the unit diagonal stored first in each L column.
                for p in (self.lower.col_ptr[col] + 1)..self.lower.col_ptr[col + 1] {
                    self.work_x[self.lower.rows[p]] -= self.lower.vals[p] * xi_val;
                }
            }

            // ----- pivot: largest magnitude among non-pivotal rows -----
            let mut pivot_row = usize::MAX;
            let mut pivot_mag = 0.0f64;
            for &i in &self.work_xi {
                if self.pinv[i] < 0 {
                    let mag = self.work_x[i].abs();
                    if mag > pivot_mag {
                        pivot_mag = mag;
                        pivot_row = i;
                    }
                }
            }
            if pivot_mag < PIVOT_FLOOR {
                let scale = || self.column_scale(&self.work_xi, &self.lower.rows, k);
                if let Err(e) = judge_pivot(pivot_mag, k, scale) {
                    // Clean the workspace before reporting failure.
                    for &i in &self.work_xi {
                        self.work_x[i] = 0.0;
                        self.work_marked[i] = false;
                    }
                    return Err(e);
                }
            }
            // ----- threshold: the diagonal when it is at least τ of the
            // largest; a row outside the reach holds +0.0 -----
            if pivot_row != k && self.pinv[k] < 0 {
                let diag = self.work_x[k].abs();
                if diag >= tau * pivot_mag {
                    self.relaxed |= diag < pivot_mag;
                    pivot_row = k;
                }
            }
            let pivot = self.work_x[pivot_row];
            self.pinv[pivot_row] = k as isize;
            self.sym_xi.extend_from_slice(&self.work_xi);
            self.sym_xi_ptr.push(self.sym_xi.len());
            self.sym_pivot.push(pivot_row);

            // ----- emit U column k then L column k -----
            for &i in &self.work_xi {
                let piv = self.pinv[i];
                if piv >= 0 && (piv as usize) < k {
                    self.upper.push(piv as usize, self.work_x[i]);
                }
            }
            self.upper.push(k, pivot);
            self.upper.end_column();

            self.lower.push(pivot_row, 1.0);
            for &i in &self.work_xi {
                if self.pinv[i] < 0 {
                    self.lower.push(i, self.work_x[i] / pivot);
                }
            }
            self.lower.end_column();

            // ----- reset workspace -----
            for &i in &self.work_xi {
                self.work_x[i] = 0.0;
                self.work_marked[i] = false;
            }
        }
        // Keep L's original-coordinate rows and A's pattern: `refactor`
        // replays the elimination in these coordinates.
        self.sym_lower_rows.clear();
        self.sym_lower_rows.extend_from_slice(&self.lower.rows);
        self.sym_a_col_ptr.clear();
        self.sym_a_col_ptr.extend_from_slice(&a.col_ptr);
        self.sym_a_rows.clear();
        self.sym_a_rows.extend_from_slice(&a.rows);
        // Remap L's row indices into pivoted coordinates so that L is
        // genuinely lower triangular for the solve phase.
        for r in &mut self.lower.rows {
            debug_assert!(self.pinv[*r] >= 0);
            *r = self.pinv[*r] as usize;
        }
        self.sym_valid = true;
        self.stats.full_factors += 1;
        Ok(())
    }

    /// Refactors a matrix with the same sparsity pattern as the last
    /// successful [`factor`](Self::factor), reusing the discovered column
    /// patterns, pivot order, and `L`/`U` allocations.
    ///
    /// Each column's pivot search is re-run over the new values, and the
    /// stored pivot is kept while it is at least τ of the column's largest
    /// candidate. The numeric replay is bit-identical to a from-scratch
    /// factorization whenever that would pick the same pivots (for
    /// instance, when every stored pivot is the diagonal and still passes
    /// τ). When a stored pivot falls under τ (degradation) at column `k`,
    /// the columns before `k` hold what a factorization in the stored
    /// order holds, so the call cuts the factors back to them and
    /// continues [`factor`](Self::factor)'s column loop from `k` (one full
    /// factor and one pivot fallback). With no prior factorization or a
    /// changed pattern it runs [`factor`](Self::factor) itself.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when no acceptable pivot exists in
    /// some column.
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<(), Error> {
        if !self.sym_valid
            || a.dim() != self.n
            || a.col_ptr != self.sym_a_col_ptr
            || a.rows != self.sym_a_rows
        {
            return self.factor(a);
        }
        let n = self.n;
        let tau = self.threshold();
        self.relaxed = false;
        for k in 0..n {
            let xi = &self.sym_xi[self.sym_xi_ptr[k]..self.sym_xi_ptr[k + 1]];
            // ----- numeric: scatter A[:, k] then eliminate in replay order -----
            for p in a.col_ptr[k]..a.col_ptr[k + 1] {
                self.work_x[a.rows[p]] += a.vals[p];
            }
            for idx in (0..xi.len()).rev() {
                let i = xi[idx];
                // `pinv` is fully populated here; "already pivotal at step
                // k" translates to a final pivot column below `k`.
                let piv = self.pinv[i];
                if piv as usize >= k {
                    continue;
                }
                let xi_val = self.work_x[i];
                if xi_val == 0.0 {
                    continue;
                }
                let col = piv as usize;
                for p in (self.lower.col_ptr[col] + 1)..self.lower.col_ptr[col + 1] {
                    self.work_x[self.sym_lower_rows[p]] -= self.lower.vals[p] * xi_val;
                }
            }

            // ----- pivot recheck: rerun the argmax over the new values -----
            let mut pivot_row = usize::MAX;
            let mut pivot_mag = 0.0f64;
            for &i in xi {
                if self.pinv[i] as usize >= k {
                    let mag = self.work_x[i].abs();
                    if mag > pivot_mag {
                        pivot_mag = mag;
                        pivot_row = i;
                    }
                }
            }
            let stored_row = self.sym_pivot[k];
            let stored_mag = self.work_x[stored_row].abs();
            // A NaN stored pivot fails the threshold.
            let kept = stored_mag >= tau * pivot_mag;
            if !kept
                || pivot_mag < PIVOT_FLOOR
                    && judge_pivot(pivot_mag, k, || {
                        self.column_scale(xi, &self.sym_lower_rows, k)
                    })
                    .is_err()
            {
                // The stored pivot fell under the threshold (or the column
                // is singular): the stored order no longer holds. Record
                // how far the stored pivot degraded, then clean the
                // workspace and redo the symbolic work.
                self.last_pivot_fallback = Some(PivotFallback {
                    column: k,
                    stored_row,
                    winning_row: pivot_row,
                    ratio: if stored_mag > 0.0 {
                        pivot_mag / stored_mag
                    } else {
                        f64::INFINITY
                    },
                });
                self.stats.pivot_fallbacks += 1;
                if crate::telemetry::enabled() {
                    crate::telemetry::event(
                        "pivot_fallback",
                        &[
                            ("column", k.into()),
                            ("stored_row", stored_row.into()),
                            (
                                "ratio",
                                self.last_pivot_fallback
                                    .map_or(f64::NAN, |f| f.ratio)
                                    .into(),
                            ),
                        ],
                    );
                }
                for &i in xi {
                    self.work_x[i] = 0.0;
                }
                self.truncate_to(k);
                return self.factor_from(a, k);
            }
            self.relaxed |= stored_mag < pivot_mag;
            let pivot = self.work_x[stored_row];

            // ----- overwrite U column k then L column k in place -----
            let mut cursor = self.upper.col_ptr[k];
            for &i in xi {
                let piv = self.pinv[i];
                if (piv as usize) < k {
                    debug_assert_eq!(self.upper.rows[cursor], piv as usize);
                    self.upper.vals[cursor] = self.work_x[i];
                    cursor += 1;
                }
            }
            debug_assert_eq!(cursor + 1, self.upper.col_ptr[k + 1]);
            debug_assert_eq!(self.upper.rows[cursor], k);
            self.upper.vals[cursor] = pivot;

            let mut cursor = self.lower.col_ptr[k];
            debug_assert_eq!(self.sym_lower_rows[cursor], stored_row);
            self.lower.vals[cursor] = 1.0;
            cursor += 1;
            for &i in xi {
                if self.pinv[i] as usize > k {
                    debug_assert_eq!(self.sym_lower_rows[cursor], i);
                    self.lower.vals[cursor] = self.work_x[i] / pivot;
                    cursor += 1;
                }
            }
            debug_assert_eq!(cursor, self.lower.col_ptr[k + 1]);

            // ----- reset workspace -----
            for &i in xi {
                self.work_x[i] = 0.0;
            }
        }
        self.stats.refactors += 1;
        Ok(())
    }

    /// The scale column `k`'s pivot is judged against, once the numeric
    /// sweep over its reach `xi` has left `x = L \ A[:, k]` in the
    /// workspace: the largest, over the rows still eligible to pivot, of
    /// the magnitude the row's entry would have if no update that formed
    /// it had cancelled, `t_i = |x_i| + Σ_j |l_ij|·t_j` over the rows `j`
    /// pivotal before `k`, each `t_j` formed the same way (the dense
    /// kernel's column scale). `lower_rows` are `L`'s rows in original
    /// coordinates. Computed only for a pivot under the fast gate.
    fn column_scale(&self, xi: &[usize], lower_rows: &[usize], k: usize) -> f64 {
        let pivotal = |i: usize| (0..k as isize).contains(&self.pinv[i]);
        let mut terms = vec![0.0f64; self.n];
        for &i in xi {
            terms[i] = self.work_x[i].abs();
        }
        // The numeric sweep's topological order, in magnitudes.
        for &j in xi.iter().rev().filter(|&&j| pivotal(j)) {
            let col = self.pinv[j] as usize;
            let t = terms[j];
            for p in (self.lower.col_ptr[col] + 1)..self.lower.col_ptr[col + 1] {
                terms[lower_rows[p]] += self.lower.vals[p].abs() * t;
            }
        }
        xi.iter()
            .filter(|&&i| !pivotal(i))
            .map(|&i| terms[i])
            .fold(0.0f64, f64::max)
    }

    /// Cuts the factorization back to its first `k` columns, as
    /// [`factor`](Self::factor) holds them before column `k`: `L`'s rows
    /// back in original coordinates and only the rows pivotal before `k`
    /// in `pinv`. The replay has already rewritten those columns with
    /// exactly a fresh factorization's values.
    fn truncate_to(&mut self, k: usize) {
        for factor in [&mut self.lower, &mut self.upper] {
            factor.col_ptr.truncate(k + 1);
            let len = factor.col_ptr[k];
            factor.rows.truncate(len);
            factor.vals.truncate(len);
        }
        let kept = self.lower.rows.len();
        self.lower
            .rows
            .copy_from_slice(&self.sym_lower_rows[..kept]);
        self.sym_xi.truncate(self.sym_xi_ptr[k]);
        self.sym_xi_ptr.truncate(k + 1);
        self.sym_pivot.truncate(k);
        for p in &mut self.pinv {
            if *p >= k as isize {
                *p = -1;
            }
        }
    }

    /// Counters for full factorizations vs. numeric-only
    /// refactorizations, with the triangular-solve count folded in.
    pub fn stats(&self) -> LuStats {
        let mut stats = self.stats;
        stats.solves = self.solves.load(std::sync::atomic::Ordering::Relaxed);
        stats
    }

    /// Account of the most recent pivot-degradation fallback taken by
    /// [`refactor`](Self::refactor), with the triggering pivot ratio.
    /// `None` until a fallback has occurred.
    pub fn last_pivot_fallback(&self) -> Option<PivotFallback> {
        self.last_pivot_fallback
    }

    /// Iterative depth-first search over the partially built `L` starting
    /// from original row `start`; appends the reach to `work_xi` in
    /// reverse-topological order and marks visited rows.
    fn dfs_reach(&mut self, start: usize) {
        self.work_stack.clear();
        self.work_pstack.clear();
        self.work_stack.push(start);
        self.work_marked[start] = true;
        self.work_pstack.push(self.column_start(start));
        while let Some(&node) = self.work_stack.last() {
            let depth = self.work_stack.len() - 1;
            let col_end = self.column_end(node);
            let mut cursor = self.work_pstack[depth];
            let mut descended = false;
            while cursor < col_end {
                let child = self.lower.rows[cursor];
                cursor += 1;
                if !self.work_marked[child] {
                    self.work_marked[child] = true;
                    self.work_pstack[depth] = cursor;
                    self.work_stack.push(child);
                    self.work_pstack.push(self.column_start(child));
                    descended = true;
                    break;
                }
            }
            if !descended {
                self.work_stack.pop();
                self.work_pstack.pop();
                self.work_xi.push(node);
            }
        }
    }

    /// First off-diagonal entry of the L column that row `node` maps to, or
    /// an empty range when `node` is not yet pivotal.
    fn column_start(&self, node: usize) -> usize {
        match self.pinv[node] {
            piv if piv >= 0 => self.lower.col_ptr[piv as usize] + 1,
            _ => 0,
        }
    }

    fn column_end(&self, node: usize) -> usize {
        match self.pinv[node] {
            piv if piv >= 0 => self.lower.col_ptr[piv as usize + 1],
            _ => 0,
        }
    }

    /// Solves `A x = b` using the current factors; `rhs` holds `b` on entry
    /// and `x` on exit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SolverContract`] when no factorization has been
    /// computed or the dimension does not match, so callers in sweep
    /// workers and the recovery ladder can treat it as a convergence
    /// failure instead of aborting.
    pub fn solve(&self, rhs: &mut [f64]) -> Result<(), Error> {
        self.solve_with(rhs, &mut Vec::new())
    }

    /// [`solve`](Self::solve) with caller-owned scratch `x`, so the
    /// solver's per-solve path allocates nothing.
    pub(crate) fn solve_with(&self, rhs: &mut [f64], x: &mut Vec<f64>) -> Result<(), Error> {
        let n = self.n;
        if self.lower.col_ptr.len() != n + 1 {
            return Err(Error::SolverContract {
                reason: "solve called without a complete factorization".to_string(),
            });
        }
        if rhs.len() != n {
            return Err(Error::SolverContract {
                reason: format!("rhs has {} entries for a {n}-unknown system", rhs.len()),
            });
        }
        // x = P b
        x.clear();
        x.resize(n, 0.0);
        for (i, &v) in rhs.iter().enumerate() {
            x[self.pinv[i] as usize] = v;
        }
        // L y = x (unit diagonal first in each column)
        for c in 0..n {
            let xc = x[c];
            if xc != 0.0 {
                for p in (self.lower.col_ptr[c] + 1)..self.lower.col_ptr[c + 1] {
                    x[self.lower.rows[p]] -= self.lower.vals[p] * xc;
                }
            }
        }
        // U z = y (diagonal stored last in each column)
        for c in (0..n).rev() {
            let last = self.upper.col_ptr[c + 1] - 1;
            debug_assert_eq!(self.upper.rows[last], c);
            let xc = x[c] / self.upper.vals[last];
            x[c] = xc;
            if xc != 0.0 {
                for p in self.upper.col_ptr[c]..last {
                    x[self.upper.rows[p]] -= self.upper.vals[p] * xc;
                }
            }
        }
        rhs.copy_from_slice(x);
        self.solves
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Solves `Aᵀ x = b` using the current factors; `rhs` holds `b` on
    /// entry and `x` on exit. With `P A = L U` this is `Uᵀ z = b`,
    /// `Lᵀ w = z`, `x = Pᵀ w`; rows of each transposed factor are the CSC
    /// columns already stored, so no transposition is materialized. Used
    /// by the Hager condition estimator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SolverContract`] when no factorization has been
    /// computed or the dimension does not match.
    pub fn solve_transposed(&self, rhs: &mut [f64]) -> Result<(), Error> {
        let n = self.n;
        if self.lower.col_ptr.len() != n + 1 {
            return Err(Error::SolverContract {
                reason: "solve_transposed called without a complete factorization".to_string(),
            });
        }
        if rhs.len() != n {
            return Err(Error::SolverContract {
                reason: format!("rhs has {} entries for a {n}-unknown system", rhs.len()),
            });
        }
        let mut x = rhs.to_vec();
        // Uᵀ z = b: forward substitution; row c of Uᵀ is U's column c,
        // diagonal stored last.
        for c in 0..n {
            let last = self.upper.col_ptr[c + 1] - 1;
            debug_assert_eq!(self.upper.rows[last], c);
            let mut sum = x[c];
            for p in self.upper.col_ptr[c]..last {
                sum -= self.upper.vals[p] * x[self.upper.rows[p]];
            }
            x[c] = sum / self.upper.vals[last];
        }
        // Lᵀ w = z: backward substitution with unit diagonal (stored
        // first in each L column).
        for c in (0..n).rev() {
            let mut sum = x[c];
            for p in (self.lower.col_ptr[c] + 1)..self.lower.col_ptr[c + 1] {
                sum -= self.lower.vals[p] * x[self.lower.rows[p]];
            }
            x[c] = sum;
        }
        // x = Pᵀ w: original row i was pivoted to row pinv[i].
        for (i, out) in rhs.iter_mut().enumerate() {
            *out = x[self.pinv[i] as usize];
        }
        self.solves
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Chaos hook: corrupts one stored `U` pivot so subsequent solves
    /// complete cleanly but produce wrong answers only the residual
    /// certifier can detect. The corruption lives in the factor values,
    /// which every `factor`/`refactor` call fully overwrites.
    pub(crate) fn perturb_pivot(&mut self) {
        if self.n == 0 {
            return;
        }
        let k = self.n / 2;
        let last = self.upper.col_ptr[k + 1] - 1;
        self.upper.vals[last] *= 1.0e3;
    }

    /// Total nonzeros in both factors (fill-in diagnostic).
    pub fn factor_nnz(&self) -> usize {
        self.lower.rows.len() + self.upper.rows.len()
    }
}

/// Reusable sparse solver workspace: the compiled stamp program of the
/// last pattern it saw, on a fill-reducing ordering.
///
/// The first call, and any call whose stamp sequence differs from the
/// cached one, computes a minimum-degree ordering ([`order`](super::order))
/// of the slot pattern, builds the permuted [`StampMap`] and matrix, and
/// runs a full factorization. Later calls scatter the slots straight into
/// the cached permuted CSC matrix and run [`SparseLu::refactor`], so every
/// refactor and solve runs on the low-fill pattern at no per-iteration
/// cost. The map's `Compiled` decides when to rebuild, as the dense
/// kernel's does: while the [`Triplets`] carries a program id the solver
/// has matched before, the keys are not compared again.
///
/// Factors that threshold pivoting took with some pivot under its
/// column's largest candidate are taken again by strict partial pivoting
/// (`SparseLu::factor_strict`) when their solve fails certification; the
/// strict factors' solve is the one certified or reported.
#[derive(Debug, Default)]
pub struct SparseSolver {
    lu: SparseLu,
    map: Option<StampMap>,
    matrix: Option<SparseMatrix>,
    pattern_rebuilds: usize,
    /// The slots of a system that arrives without them.
    merged: MergeScratch,
    last_quality: SolveQuality,
    /// Fill-reducing permutation of the cached pattern
    /// (`perm[original] = permuted`).
    perm: Vec<usize>,
    // Per-solve scratch: the permuted vector, the right-hand side, the
    // residual, the norms' row sums and the triangular solves' vector.
    perm_scratch: Vec<f64>,
    b: Vec<f64>,
    residual: Vec<f64>,
    row_sums: Vec<f64>,
    x: Vec<f64>,
}

impl SparseSolver {
    /// Rebuilds the cached ordering, stamp map and matrix for `triplets`,
    /// whose `slots` are duplicate-free and row-major already: the
    /// pattern `min_degree_pinv` would read from the compressed matrix,
    /// without compressing it.
    fn rebuild(&mut self, triplets: &Triplets, slots: &[(usize, usize, f64)]) {
        let pattern = slots.iter().map(|&(r, c, _)| (r, c));
        self.perm = min_degree_order(symmetric_adjacency(triplets.dim(), pattern), slots.len());
        let (map, matrix) = StampMap::compile(triplets, slots, &self.perm);
        self.map = Some(map);
        self.matrix = Some(matrix);
        self.pattern_rebuilds += 1;
    }

    /// Kernel counters: full factorizations (pivot fallbacks included),
    /// numeric refactorizations, pivot fallbacks, triangular solves.
    pub fn stats(&self) -> LuStats {
        self.lu.stats()
    }

    /// Times the ordering and stamp map were built because the stamp
    /// sequence changed, the first call included.
    pub fn pattern_rebuilds(&self) -> usize {
        self.pattern_rebuilds
    }

    /// Account of the most recent refactorization pivot fallback, if any.
    pub fn last_pivot_fallback(&self) -> Option<PivotFallback> {
        self.lu.last_pivot_fallback()
    }

    /// Certification record of the most recent successful solve.
    pub fn last_quality(&self) -> SolveQuality {
        self.last_quality
    }
}

impl Solver for SparseSolver {
    fn solve_in_place(&mut self, triplets: &Triplets, rhs: &mut [f64]) -> Result<(), Error> {
        let mut merged = std::mem::take(&mut self.merged);
        let slots = slots_of(triplets, &mut merged);
        let holds = self
            .map
            .as_mut()
            .is_some_and(|map| map.compiled.holds(triplets));
        match (&self.map, &mut self.matrix) {
            (Some(map), Some(matrix)) if holds => map.scatter_slots(slots, matrix),
            _ => self.rebuild(triplets, slots),
        }
        self.merged = merged;
        let a = self.matrix.as_ref().expect("matrix cached above");
        // ----- permute b into elimination order -----
        self.perm_scratch.clear();
        self.perm_scratch.resize(rhs.len(), 0.0);
        for (i, &v) in rhs.iter().enumerate() {
            self.perm_scratch[self.perm[i]] = v;
        }
        rhs.copy_from_slice(&self.perm_scratch);
        self.lu.refactor(a)?;
        self.b.clear();
        self.b.extend_from_slice(rhs);
        self.residual.resize(rhs.len(), 0.0);
        // Norms are permutation-invariant and `a` IS the permuted matrix,
        // so the certification below is exact for the permuted system —
        // and backward error is identical in original coordinates.
        let norms = a.norms_with(&mut self.row_sums);
        let mut certified = certified_solve(
            &mut self.lu,
            a,
            &self.b,
            rhs,
            &mut self.residual,
            &mut self.x,
            norms,
        );
        if matches!(certified, Err(Error::UntrustedSolution { .. })) && self.lu.relaxed {
            // Certification guards threshold pivoting: factors that kept
            // a pivot under its column's largest and failed it are taken
            // again by strict partial pivoting.
            self.lu.factor_strict(a)?;
            rhs.copy_from_slice(&self.b);
            certified = certified_solve(
                &mut self.lu,
                a,
                &self.b,
                rhs,
                &mut self.residual,
                &mut self.x,
                norms,
            );
        }
        self.last_quality = certified?;
        // ----- back to original coordinates -----
        for (i, slot) in self.perm_scratch.iter_mut().enumerate() {
            *slot = rhs[self.perm[i]];
        }
        rhs.copy_from_slice(&self.perm_scratch);
        if crate::telemetry::enabled() {
            crate::telemetry::event(
                "sparse_solve",
                &[
                    ("dim", a.n.into()),
                    ("bwerr", self.last_quality.backward_error.into()),
                    (
                        "refinement_steps",
                        self.last_quality.refinement_steps.into(),
                    ),
                    (
                        "fill",
                        (self.lu.factor_nnz() as f64 / a.nnz().max(1) as f64).into(),
                    ),
                ],
            );
        }
        Ok(())
    }
}

/// Solves `a x = b` on `lu`, the factors of `a` just taken, into `rhs`
/// (which holds `b` on entry) and certifies the solution: the
/// [`SparseSolver`]'s triangular solves and residual.
fn certified_solve(
    lu: &mut SparseLu,
    a: &SparseMatrix,
    b: &[f64],
    rhs: &mut [f64],
    residual: &mut [f64],
    x: &mut Vec<f64>,
    norms: (f64, f64),
) -> Result<SolveQuality, Error> {
    if crate::chaos::perturb_lu_active() {
        lu.perturb_pivot();
    }
    lu.solve_with(rhs, x)?;
    let lu: &SparseLu = lu;
    verify::certify_with(
        rhs,
        b,
        residual,
        norms,
        |x, out| {
            // r = b − A x over the cached CSC matrix.
            out.copy_from_slice(b);
            for c in 0..a.n {
                let xc = x[c];
                if xc == 0.0 {
                    continue;
                }
                for p in a.col_ptr[c]..a.col_ptr[c + 1] {
                    out[a.rows[p]] -= a.vals[p] * xc;
                }
            }
        },
        |v| lu.solve_with(v, x),
        |v| lu.solve_transposed(v),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::dense::DenseSolver;
    use crate::linalg::PIVOT_THRESHOLD;

    fn compare_with_dense(t: &Triplets, b: &[f64]) {
        let mut dense_x = b.to_vec();
        DenseSolver::default()
            .solve_in_place(t, &mut dense_x)
            .unwrap();
        let mut sparse_x = b.to_vec();
        SparseSolver::default()
            .solve_in_place(t, &mut sparse_x)
            .unwrap();
        for (s, d) in sparse_x.iter().zip(&dense_x) {
            assert!(
                (s - d).abs() < 1e-9 * d.abs().max(1.0),
                "sparse {s} vs dense {d}"
            );
        }
    }

    #[test]
    fn csc_merges_duplicates() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.0);
        t.add(1, 1, 5.0);
        let m = SparseMatrix::from_triplets(&t);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 5.0]);
    }

    #[test]
    fn solves_diagonal() {
        let mut t = Triplets::new(3);
        t.add(0, 0, 2.0);
        t.add(1, 1, 4.0);
        t.add(2, 2, 8.0);
        compare_with_dense(&t, &[2.0, 4.0, 8.0]);
    }

    #[test]
    fn solves_tridiagonal_chain() {
        let n = 50;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 2.5);
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        compare_with_dense(&t, &b);
    }

    #[test]
    fn solves_with_pivoting_required() {
        // Structural zero on the diagonal.
        let mut t = Triplets::new(3);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 2, 3.0);
        t.add(2, 1, -2.0);
        t.add(2, 2, 1.0);
        compare_with_dense(&t, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_star_topology() {
        // A hub node coupled to many leaves, like a shared detector load.
        let n = 61;
        let mut t = Triplets::new(n);
        t.add(0, 0, 1.0);
        for i in 1..n {
            t.add(i, i, 3.0);
            t.add(0, i, -0.5);
            t.add(i, 0, -0.5);
            t.add(0, 0, 0.5);
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        compare_with_dense(&t, &b);
    }

    #[test]
    fn detects_singular() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 1, 1.0);
        let mut rhs = vec![1.0, 1.0];
        let err = SparseSolver::default()
            .solve_in_place(&t, &mut rhs)
            .unwrap_err();
        assert!(matches!(err, Error::SingularMatrix { .. }));
    }

    #[test]
    fn workspace_reuse_across_sizes() {
        let mut solver = SparseSolver::default();
        for n in [3usize, 10, 4] {
            let mut t = Triplets::new(n);
            for i in 0..n {
                t.add(i, i, 1.0 + i as f64);
            }
            let mut rhs: Vec<f64> = (0..n).map(|i| (1.0 + i as f64) * 2.0).collect();
            solver.solve_in_place(&t, &mut rhs).unwrap();
            for v in rhs {
                assert!((v - 2.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transposed_solve_matches_transposed_system() {
        let n = 12;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 5.0 + (i as f64 * 0.3).sin());
            t.add(i, (i + 3) % n, -0.7);
            t.add((i + 5) % n, i, 0.4);
        }
        let a = SparseMatrix::from_triplets(&t);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
        let mut x = b.clone();
        lu.solve_transposed(&mut x).unwrap();
        // Check Aᵀ x = b: (Aᵀ x)[c] = Σ_p vals[p] · x[rows[p]] over column c.
        for c in 0..n {
            let mut atx = 0.0;
            for p in a.col_ptr[c]..a.col_ptr[c + 1] {
                atx += a.vals[p] * x[a.rows[p]];
            }
            assert!((atx - b[c]).abs() < 1e-10, "col {c}: {atx} vs {}", b[c]);
        }
    }

    #[test]
    fn refactor_pivot_fallback_surfaces_ratio() {
        // The first value set stores row 1 as column 0's pivot (the
        // diagonal, 1 against 1000, is under τ of it); the second leaves
        // that pivot at 1 against the diagonal's 1000, under τ of the
        // column's largest, forcing the replay to fall back to a full
        // factorization.
        let mut t1 = Triplets::new(2);
        t1.add(0, 0, 1.0);
        t1.add(1, 0, 1000.0);
        t1.add(0, 1, 1.0);
        t1.add(1, 1, 1.0);
        let a1 = SparseMatrix::from_triplets(&t1);
        let mut t2 = Triplets::new(2);
        t2.add(0, 0, 1000.0);
        t2.add(1, 0, 1.0);
        t2.add(0, 1, 1.0);
        t2.add(1, 1, 1.0);
        let a2 = SparseMatrix::from_triplets(&t2);

        let mut lu = SparseLu::new();
        lu.factor(&a1).unwrap();
        assert!(lu.last_pivot_fallback().is_none());
        lu.refactor(&a2).unwrap();
        let fb = lu.last_pivot_fallback().expect("fallback recorded");
        assert_eq!(fb.column, 0);
        assert_eq!(fb.stored_row, 1);
        assert_eq!(fb.winning_row, 0);
        assert_eq!(fb.ratio, 1000.0);
        assert_eq!(lu.stats().pivot_fallbacks, 1);
        assert!(fb.to_string().contains("column 0"), "{fb}");
        // The fallback still produced a correct factorization.
        let mut x = vec![1001.0, 2.0];
        lu.solve(&mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    /// A tridiagonal matrix with every other row negated, so half the
    /// pivots are negative, whose subdiagonal entry below column `flip`
    /// is `sub` (1 elsewhere): a `sub` far over the diagonal moves the
    /// pivot at column `flip` to row `flip + 1`.
    fn flipped_tridiagonal(n: usize, flip: usize, sub: f64) -> SparseMatrix {
        let mut t = Triplets::new(n);
        for i in 0..n {
            let sign = if i % 2 == 1 { -1.0 } else { 1.0 };
            t.add(i, i, sign * (5.0 + i as f64 * 0.1));
            if i + 1 < n {
                t.add(i, i + 1, sign * 0.5);
            }
            if i > 0 {
                t.add(i, i - 1, sign * if i - 1 == flip { sub } else { 1.0 });
            }
        }
        SparseMatrix::from_triplets(&t)
    }

    #[test]
    fn refactor_continues_from_the_changed_column_bitwise() {
        let n = 9;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // A subdiagonal that out-pivots the diagonal by far more than
        // 1 / τ, and one that falls far under τ of it: each leaves the
        // other's stored pivot under the threshold.
        let (big, small) = (100.0 / PIVOT_THRESHOLD, PIVOT_THRESHOLD / 100.0);
        // Column n − 1 has one row left, so n − 2 is the last column with
        // a choice.
        for flip in [0, n / 2, n - 2] {
            for (before, after) in [(1.0, big), (big, small)] {
                let mut lu = SparseLu::new();
                lu.factor(&flipped_tridiagonal(n, flip, before)).unwrap();
                let a = flipped_tridiagonal(n, flip, after);
                lu.refactor(&a).unwrap();
                let fallback = lu.last_pivot_fallback().expect("the pivot moved");
                assert_eq!(fallback.column, flip);
                let stats = lu.stats();
                assert_eq!((stats.full_factors, stats.pivot_fallbacks), (2, 1));
                let mut fresh = SparseLu::new();
                fresh.factor(&a).unwrap();
                for (got, want) in [(&lu.lower, &fresh.lower), (&lu.upper, &fresh.upper)] {
                    assert_eq!(got.col_ptr, want.col_ptr, "flip {flip}");
                    assert_eq!(got.rows, want.rows, "flip {flip}");
                    assert_eq!(bits(&got.vals), bits(&want.vals), "flip {flip}");
                }
                assert_eq!(lu.pinv, fresh.pinv);
                assert_eq!(lu.sym_xi, fresh.sym_xi);
                assert_eq!(lu.sym_lower_rows, fresh.sym_lower_rows);
                let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
                let (mut x, mut x_fresh) = (b.clone(), b);
                lu.solve(&mut x).unwrap();
                fresh.solve(&mut x_fresh).unwrap();
                assert_eq!(bits(&x), bits(&x_fresh));
                // The continued factorization replays like a fresh one.
                lu.refactor(&a).unwrap();
                assert_eq!(lu.stats().refactors, 1);
            }
        }
    }

    /// `[[a00, 1], [1, 2]]`: the stored pivot of column 0 is row 1 while
    /// `a00` stays under τ of it.
    fn threshold_pair(a00: f64) -> SparseMatrix {
        let mut t = Triplets::new(2);
        t.add(0, 0, a00);
        t.add(1, 0, 1.0);
        t.add(0, 1, 1.0);
        t.add(1, 1, 2.0);
        SparseMatrix::from_triplets(&t)
    }

    #[test]
    fn refactor_keeps_a_stored_pivot_at_the_threshold_and_falls_back_under_it() {
        // The factorization prefers the diagonal only at τ or more of the
        // column's largest; under it, row 1 is stored.
        let mut lu = SparseLu::new();
        lu.factor(&threshold_pair(0.0)).unwrap();
        assert_eq!(lu.sym_pivot[0], 1);
        assert!(!lu.relaxed);
        // The diagonal grows past the stored pivot, which keeps exactly τ
        // of the column's largest: the order is kept.
        lu.refactor(&threshold_pair(1.0 / PIVOT_THRESHOLD)).unwrap();
        let stats = lu.stats();
        assert_eq!((stats.refactors, stats.pivot_fallbacks), (1, 0));
        assert_eq!(lu.sym_pivot[0], 1);
        assert!(lu.relaxed, "a kept pivot under the column's largest");
        let mut x = vec![1.0 / PIVOT_THRESHOLD + 1.0, 3.0];
        lu.solve(&mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
        // One ulp further, the stored pivot is under τ: a fallback, and the
        // continued factorization takes the diagonal.
        let over = f64::from_bits((1.0 / PIVOT_THRESHOLD).to_bits() + 1);
        assert!(PIVOT_THRESHOLD * over > 1.0);
        lu.refactor(&threshold_pair(over)).unwrap();
        let stats = lu.stats();
        assert_eq!((stats.refactors, stats.pivot_fallbacks), (1, 1));
        assert_eq!(lu.sym_pivot[0], 0);
        assert!(!lu.relaxed);
        // Strict pivoting takes the largest candidate wherever the
        // threshold would keep another.
        lu.factor(&threshold_pair(0.25)).unwrap();
        assert_eq!(lu.sym_pivot[0], 0, "0.25 passes τ");
        lu.factor_strict(&threshold_pair(0.25)).unwrap();
        assert_eq!(lu.sym_pivot[0], 1);
    }

    #[test]
    fn threshold_factors_that_fail_certification_are_taken_again_strictly() {
        // Unit diagonal, every entry below it −1/τ and a last column of
        // ones: each diagonal keeps exactly τ of its column, so threshold
        // pivoting takes it with multipliers of 1/τ, and 16 columns of that
        // growth leave factors no refinement step can certify. Strict
        // partial pivoting bounds the multipliers by 1.
        let n = 16;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 1.0);
            for j in 0..i {
                t.add(i, j, -1.0 / PIVOT_THRESHOLD);
            }
            if i + 1 < n {
                t.add(i, n - 1, 1.0);
            }
        }
        let mut lu = SparseLu::new();
        lu.factor(&SparseMatrix::from_triplets(&t)).unwrap();
        assert!(lu.relaxed);
        let mut solver = SparseSolver::default();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut x = b.clone();
        solver.solve_in_place(&t, &mut x).unwrap();
        assert!(solver.last_quality().backward_error <= verify::bwerr_tol());
        // The threshold factorization, then the strict one.
        assert_eq!(solver.stats().full_factors, 2);
        assert!(!solver.lu.relaxed);
    }

    #[test]
    fn refactor_continuation_reports_a_collapsed_last_column() {
        // The last column collapses to exactly zero: the continuation
        // from it fails where a fresh factorization does.
        let build = |a11: f64| {
            let mut t = Triplets::new(2);
            t.add(0, 0, 2.0);
            t.add(0, 1, 1.0);
            t.add(1, 0, 1.0);
            t.add(1, 1, a11);
            SparseMatrix::from_triplets(&t)
        };
        let mut lu = SparseLu::new();
        lu.factor(&build(3.0)).unwrap();
        let err = lu.refactor(&build(0.5)).unwrap_err();
        let fresh = SparseLu::new().factor(&build(0.5)).unwrap_err();
        assert_eq!(err.to_string(), fresh.to_string());
        assert!(matches!(err, Error::SingularMatrix { column: 1, .. }));
        lu.refactor(&build(3.0)).unwrap();
        assert_eq!(lu.stats().full_factors, 2);
    }

    #[test]
    fn residual_small_on_pseudorandom_sparse_system() {
        let n = 120;
        let mut t = Triplets::new(n);
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            t.add(i, i, 6.0 + next());
            for _ in 0..4 {
                let j = ((next().abs() * n as f64) as usize).min(n - 1);
                t.add(i, j, next());
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        SparseSolver::default().solve_in_place(&t, &mut x).unwrap();
        let a = SparseMatrix::from_triplets(&t);
        let ax = a.mul_vec(&x);
        for (lhs, rhs) in ax.iter().zip(&b) {
            assert!((lhs - rhs).abs() < 1e-8, "{lhs} vs {rhs}");
        }
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::linalg::dense::DenseSolver;
    use xrand::StdRng;

    /// A random diagonally dominant `n × n` triplet list (always solvable).
    fn diag_dominant_matrix(rng: &mut StdRng, n: usize) -> Triplets {
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, rng.gen_range(4.0..10.0) * n as f64);
        }
        let nnz = rng.gen_range(0..4 * n);
        for _ in 0..nnz {
            t.add(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-1.0..1.0),
            );
        }
        t
    }

    #[test]
    fn sparse_matches_dense() {
        let mut rng = StdRng::seed_from_u64(0x5bac5e);
        for case in 0..64 {
            let n = rng.gen_range(2usize..40);
            let t = diag_dominant_matrix(&mut rng, n);
            let b: Vec<f64> = (0..n).map(|i| ((i + case) as f64 * 0.61).sin()).collect();
            let mut xd = b.clone();
            DenseSolver::default().solve_in_place(&t, &mut xd).unwrap();
            let mut xs = b.clone();
            SparseSolver::default().solve_in_place(&t, &mut xs).unwrap();
            for (s, d) in xs.iter().zip(&xd) {
                assert!((s - d).abs() < 1e-8 * d.abs().max(1.0), "{s} vs {d}");
            }
        }
    }

    #[test]
    fn csc_mul_matches_dense_mul() {
        let mut rng = StdRng::seed_from_u64(0xc5c);
        for _ in 0..64 {
            let n = rng.gen_range(2usize..25);
            let t = diag_dominant_matrix(&mut rng, n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let sparse = SparseMatrix::from_triplets(&t);
            let dense = crate::linalg::dense::DenseMatrix::from_triplets(&t);
            let ys = sparse.mul_vec(&x);
            let yd = dense.mul_vec(&x);
            for (a, b) in ys.iter().zip(&yd) {
                assert!((a - b).abs() < 1e-10 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }
}
