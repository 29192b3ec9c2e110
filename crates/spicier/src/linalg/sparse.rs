//! Sparse LU factorization (left-looking Gilbert–Peierls with partial
//! pivoting) on compressed-sparse-column storage.
//!
//! The algorithm follows Davis' CSparse `cs_lu`: for each column, the
//! nonzero pattern of the triangular solve is discovered with a depth-first
//! reachability search over the partially built `L`, the numeric values are
//! computed in topological order, and the pivot row is the
//! largest-magnitude candidate among not-yet-pivotal rows.

// Index-based loops are kept in these numeric kernels: the indices are
// the mathematical objects (pivot rows, column positions).
#![allow(clippy::needless_range_loop)]

use super::order::min_degree_pinv;
use super::{verify, verify::SolveQuality, Solver, DENSE_CUTOFF};
use crate::error::Error;

/// Smallest pivot magnitude accepted before the matrix is declared singular.
const PIVOT_FLOOR: f64 = 1e-13;

/// Unknown count from which [`SparseSolver`] applies the fill-reducing
/// ordering automatically: every system too large for the dense kernel,
/// so there is one size policy, dense up to [`DENSE_CUTOFF`] unknowns and
/// ordered sparse above.
///
/// Natural order is not near-optimal there: at far-from-converged Newton
/// iterates partial pivoting picks pivots whose fill (factor nonzeros ÷
/// matrix nonzeros) grows with the circuit, 5.6× at 104 unknowns and 35×
/// at 584–776 on the worst solve of a cold-start operating point, against
/// at most 1.8× ordered. [`force_ordering`](SparseSolver::force_ordering)
/// overrides the policy; its natural order is the reference the
/// agreement tests compare against.
pub const ORDERING_MIN_DIM: usize = DENSE_CUTOFF + 1;

/// Coordinate-format accumulator for assembling MNA matrices.
///
/// Duplicate `(row, col)` entries are summed when the matrix is compressed,
/// which is exactly the semantics device stamps need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Triplets {
    dim: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Triplets {
    /// Creates an accumulator for an `n × n` system.
    pub fn new(n: usize) -> Self {
        Self {
            dim: n,
            entries: Vec::new(),
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Raw `(row, col, value)` entries, in insertion order.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Number of raw entries (before duplicate merging).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.dim && col < self.dim, "index out of bounds");
        self.entries.push((row, col, value));
    }

    /// Drops all entries but keeps the allocation, ready for re-assembly.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Resizes the system dimension (entries must already fit).
    ///
    /// # Panics
    ///
    /// Panics if an existing entry would fall out of bounds.
    pub fn reset(&mut self, n: usize) {
        self.entries.clear();
        self.dim = n;
    }
}

/// An immutable compressed-sparse-column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseMatrix {
    /// Compresses triplets into CSC form, summing duplicates.
    pub fn from_triplets(triplets: &Triplets) -> Self {
        let n = triplets.dim();
        let mut sorted: Vec<(usize, usize, f64)> = triplets.entries().to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (c, r));
        let mut col_ptr = vec![0usize; n + 1];
        let mut rows = Vec::with_capacity(sorted.len());
        let mut vals = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for &(r, c, v) in &sorted {
            if last == Some((r, c)) {
                *vals.last_mut().expect("entry exists when last is set") += v;
            } else {
                rows.push(r);
                vals.push(v);
                col_ptr[c + 1] += 1;
                last = Some((r, c));
            }
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        Self {
            n,
            col_ptr,
            rows,
            vals,
        }
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
        let mut row_sums = vec![0.0f64; self.n];
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

/// A precomputed map from a fixed stamp sequence to CSC value slots.
///
/// MNA assembly emits the same `(row, col)` sequence every Newton iteration
/// once the circuit topology and evaluation mode are fixed; only the values
/// change. `StampMap::build` runs the triplet sort once and records, for
/// each sorted position, which raw entry it came from and which CSC slot it
/// lands in. [`StampMap::scatter`] then refreshes a cached
/// [`SparseMatrix`]'s values without sorting or reallocating.
///
/// The scatter replays the exact accumulation order of
/// [`SparseMatrix::from_triplets`] (the sort permutation depends only on the
/// `(row, col)` keys, never on the values), so the refreshed matrix is
/// bit-identical to one built from scratch.
#[derive(Debug, Clone)]
pub struct StampMap {
    dim: usize,
    /// `(row, col)` of each raw entry, in insertion order; used to detect
    /// a changed stamp sequence.
    keys: Vec<(u32, u32)>,
    /// Raw entry index for each program step, in `(col, row)` sorted order.
    order: Vec<u32>,
    /// CSC slot written by each program step (parallel to `order`);
    /// duplicate keys occupy consecutive steps with the same slot.
    slots: Vec<u32>,
}

impl StampMap {
    /// Builds the slot map for the stamp sequence in `triplets` and returns
    /// it together with the compressed matrix.
    ///
    /// # Panics
    ///
    /// Panics if the system has more than `u32::MAX` rows or raw entries.
    pub fn build(triplets: &Triplets) -> (Self, SparseMatrix) {
        let matrix = SparseMatrix::from_triplets(triplets);
        let entries = triplets.entries();
        assert!(triplets.dim() <= u32::MAX as usize, "dimension too large");
        assert!(entries.len() <= u32::MAX as usize, "too many stamp entries");
        let keys: Vec<(u32, u32)> = entries
            .iter()
            .map(|&(r, c, _)| (r as u32, c as u32))
            .collect();
        // Re-run the exact sort `from_triplets` uses, but carry the entry
        // index as the payload. `sort_unstable_by_key` is deterministic and
        // compares keys only, so the permutation matches the one applied to
        // the real values during compression.
        let mut sorted: Vec<(usize, usize, f64)> = entries
            .iter()
            .enumerate()
            .map(|(idx, &(r, c, _))| (r, c, idx as f64))
            .collect();
        sorted.sort_unstable_by_key(|&(r, c, _)| (c, r));
        let mut order = Vec::with_capacity(sorted.len());
        let mut slots = Vec::with_capacity(sorted.len());
        let mut slot = 0u32;
        let mut last: Option<(usize, usize)> = None;
        for &(r, c, idx) in &sorted {
            if let Some(prev) = last {
                if prev != (r, c) {
                    slot += 1;
                }
            }
            last = Some((r, c));
            order.push(idx as u32);
            slots.push(slot);
        }
        debug_assert_eq!(
            matrix.nnz(),
            if sorted.is_empty() {
                0
            } else {
                slot as usize + 1
            }
        );
        (
            Self {
                dim: triplets.dim(),
                keys,
                order,
                slots,
            },
            matrix,
        )
    }

    /// Builds a slot map for the stamp sequence in `triplets` whose
    /// compressed matrix is the **symmetrically permuted**
    /// `A'[pinv[r], pinv[c]] = A[r, c]`, for a fill-reducing ordering
    /// `pinv` (see [`order::min_degree_pinv`](super::order::min_degree_pinv)).
    ///
    /// The map's keys stay in *original* coordinates, so
    /// [`matches`](Self::matches) and [`scatter`](Self::scatter) work
    /// unchanged on the raw stamp sequence — every Newton iteration
    /// scatters straight into the permuted CSC matrix with zero extra
    /// per-iteration cost. Duplicate stamps accumulate in the permuted
    /// sort order, and the scatter replays exactly that order, so
    /// repeated assemblies of the same circuit stay bit-identical to each
    /// other (though not to the unpermuted compression, which sums
    /// duplicates in a different order).
    ///
    /// # Panics
    ///
    /// Panics if `pinv` is not a `dim()`-sized permutation, or if the
    /// system exceeds `u32::MAX` rows or raw entries.
    pub fn build_permuted(triplets: &Triplets, pinv: &[usize]) -> (Self, SparseMatrix) {
        let n = triplets.dim();
        assert_eq!(pinv.len(), n, "permutation length mismatch");
        let entries = triplets.entries();
        assert!(n <= u32::MAX as usize, "dimension too large");
        assert!(entries.len() <= u32::MAX as usize, "too many stamp entries");
        let keys: Vec<(u32, u32)> = entries
            .iter()
            .map(|&(r, c, _)| (r as u32, c as u32))
            .collect();
        let mut sorted: Vec<(usize, usize, u32)> = entries
            .iter()
            .enumerate()
            .map(|(idx, &(r, c, _))| (pinv[r], pinv[c], idx as u32))
            .collect();
        sorted.sort_unstable_by_key(|&(r, c, _)| (c, r));
        let mut col_ptr = vec![0usize; n + 1];
        let mut rows = Vec::with_capacity(sorted.len());
        let mut vals: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut order = Vec::with_capacity(sorted.len());
        let mut slots = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for &(r, c, idx) in &sorted {
            let v = entries[idx as usize].2;
            if last == Some((r, c)) {
                *vals.last_mut().expect("entry exists when last is set") += v;
            } else {
                rows.push(r);
                vals.push(v);
                col_ptr[c + 1] += 1;
                last = Some((r, c));
            }
            order.push(idx);
            slots.push(vals.len() as u32 - 1);
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        (
            Self {
                dim: n,
                keys,
                order,
                slots,
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
    /// built for (same dimension, same `(row, col)` keys in the same order).
    pub fn matches(&self, triplets: &Triplets) -> bool {
        if triplets.dim() != self.dim || triplets.len() != self.keys.len() {
            return false;
        }
        triplets
            .entries()
            .iter()
            .zip(&self.keys)
            .all(|(&(r, c, _), &(kr, kc))| r as u32 == kr && c as u32 == kc)
    }

    /// Rewrites `matrix`'s values from `triplets`, reproducing
    /// [`SparseMatrix::from_triplets`] bit-for-bit. Returns `false` (and
    /// leaves `matrix` untouched) when the stamp sequence no longer matches
    /// this map and the caller must rebuild.
    pub fn scatter(&self, triplets: &Triplets, matrix: &mut SparseMatrix) -> bool {
        if !self.matches(triplets) || matrix.nnz() != self.slot_count() {
            return false;
        }
        let entries = triplets.entries();
        let vals = &mut matrix.vals;
        let mut prev_slot = u32::MAX;
        for (&idx, &slot) in self.order.iter().zip(&self.slots) {
            let v = entries[idx as usize].2;
            if slot == prev_slot {
                vals[slot as usize] += v;
            } else {
                // First entry of a slot run: assign, matching the
                // `rows.push / vals.push` of a fresh compression exactly
                // (including signed zeros).
                vals[slot as usize] = v;
                prev_slot = slot;
            }
        }
        true
    }

    /// Number of CSC slots (merged nonzeros) this map addresses.
    fn slot_count(&self) -> usize {
        self.slots.last().map_or(0, |&s| s as usize + 1)
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
    /// yet seen twice (dense), or a pivot-degradation fallback.
    pub full_factors: usize,
    /// Numeric-only refactorizations that reused the cached pattern and
    /// pivot order to the end.
    pub refactors: usize,
    /// Refactorizations abandoned mid-replay because partial pivoting
    /// would now choose a different pivot; each also counts as a full
    /// factor. For the sparse kernel, [`SparseLu::last_pivot_fallback`]
    /// gives the triggering ratio.
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
/// by how much the stored pivot had degraded relative to the row partial
/// pivoting now prefers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PivotFallback {
    /// Column at which the replay was abandoned.
    pub column: usize,
    /// Row the cached symbolic analysis pivoted on.
    pub stored_row: usize,
    /// Row the fresh pivot search preferred (`usize::MAX` when the whole
    /// column collapsed below the pivot floor).
    pub winning_row: usize,
    /// `|winning pivot| / |stored pivot|` at the fallback point — how many
    /// times larger the fresh winner was than the stored choice
    /// (`∞` when the stored pivot's value had collapsed to zero).
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
/// (`pinv[original_row] = pivoted_row`).
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
        let n = a.dim();
        self.resize(n);
        self.lower.begin();
        self.upper.begin();
        self.sym_valid = false;
        self.sym_xi.clear();
        self.sym_xi_ptr.clear();
        self.sym_xi_ptr.push(0);
        self.sym_pivot.clear();
        for k in 0..n {
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
            if pivot_row == usize::MAX || pivot_mag < PIVOT_FLOOR {
                // Clean the workspace before reporting failure.
                for &i in &self.work_xi {
                    self.work_x[i] = 0.0;
                    self.work_marked[i] = false;
                }
                return Err(Error::SingularMatrix { column: k });
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
    /// The numeric replay is bit-identical to a from-scratch factorization
    /// as long as the stored pivot order is still what partial pivoting
    /// would choose. Each column's pivot search is re-run over the new
    /// values; when the winner differs from the stored pivot (degradation),
    /// or when there is no prior factorization or the pattern changed, the
    /// call transparently falls back to a full [`factor`](Self::factor).
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
            if pivot_row != self.sym_pivot[k] || pivot_mag < PIVOT_FLOOR {
                // Partial pivoting would choose differently now (or the
                // column collapsed): the replay is no longer exact.
                // Record how far the stored pivot degraded — previously
                // this fallback was silent, which hid exactly the numeric
                // drift the condition estimator now cares about — then
                // clean the workspace and redo the symbolic work.
                let stored_row = self.sym_pivot[k];
                let stored_mag = self.work_x[stored_row].abs();
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
                return self.factor(a);
            }
            let pivot = self.work_x[pivot_row];

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
            debug_assert_eq!(self.sym_lower_rows[cursor], pivot_row);
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
        let mut x = vec![0.0; n];
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
        rhs.copy_from_slice(&x);
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

/// Running counters for a caching solver's assembly and factorization paths.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Times the stamp-slot map was (re)built because the stamp sequence
    /// changed (includes the first call).
    pub pattern_rebuilds: usize,
    /// Full symbolic + numeric factorizations.
    pub full_factors: usize,
    /// Numeric-only refactorizations on the cached pattern.
    pub refactors: usize,
    /// Refactorizations abandoned because the stored pivot order degraded
    /// (each one also counts as a full factorization).
    pub pivot_fallbacks: usize,
}

/// Reusable sparse solver workspace with a cached stamp-slot map.
///
/// The first call (and any call whose stamp sequence differs from the
/// cached one) compresses the triplets, builds a [`StampMap`], and runs a
/// full factorization. Subsequent calls with the same stamp sequence —
/// every Newton iteration of a fixed circuit — scatter values straight
/// into the cached CSC matrix and run [`SparseLu::refactor`].
///
/// From [`ORDERING_MIN_DIM`] unknowns the pattern rebuild additionally
/// computes a minimum-degree fill-reducing ordering
/// ([`order`](super::order)) and caches the *permuted* matrix, so every
/// refactor and solve runs on the low-fill pattern at zero per-iteration
/// cost.
#[derive(Debug, Default)]
pub struct SparseSolver {
    lu: SparseLu,
    map: Option<StampMap>,
    matrix: Option<SparseMatrix>,
    pattern_rebuilds: usize,
    last_quality: SolveQuality,
    /// Active fill-reducing permutation (`perm[original] = permuted`);
    /// `None` when factoring in natural order.
    perm: Option<Vec<usize>>,
    perm_scratch: Vec<f64>,
    force_ordering: Option<bool>,
    // Per-solve scratch: the right-hand side and the residual.
    b: Vec<f64>,
    residual: Vec<f64>,
}

impl SparseSolver {
    /// Forces the fill-reducing ordering on (`true`) or off (`false`)
    /// regardless of size; invalidates the cached pattern so the next
    /// solve rebuilds.
    pub fn force_ordering(&mut self, on: bool) {
        self.force_ordering = Some(on);
        self.map = None;
        self.matrix = None;
        self.perm = None;
    }

    /// Whether solves currently run on a fill-reduced permuted pattern.
    pub fn ordering_active(&self) -> bool {
        self.perm.is_some()
    }

    /// Rebuilds the cached stamp map/matrix for a new stamp sequence,
    /// deciding the solve strategy for this pattern: minimum-degree
    /// ordering when on for this size, else the natural order.
    fn rebuild(&mut self, triplets: &Triplets) {
        let dim = triplets.dim();
        let want_ordering = self.force_ordering.unwrap_or(dim >= ORDERING_MIN_DIM);
        if want_ordering {
            let a = SparseMatrix::from_triplets(triplets);
            let pinv = min_degree_pinv(dim, a.col_ptr(), a.rows());
            let (map, matrix) = StampMap::build_permuted(triplets, &pinv);
            self.perm = Some(pinv);
            self.map = Some(map);
            self.matrix = Some(matrix);
        } else {
            let (map, matrix) = StampMap::build(triplets);
            self.perm = None;
            self.map = Some(map);
            self.matrix = Some(matrix);
        }
        self.pattern_rebuilds += 1;
    }
    /// Counters for the assembly and factorization fast paths.
    pub fn stats(&self) -> SolverStats {
        let lu = self.lu.stats();
        SolverStats {
            pattern_rebuilds: self.pattern_rebuilds,
            full_factors: lu.full_factors,
            refactors: lu.refactors,
            pivot_fallbacks: lu.pivot_fallbacks,
        }
    }

    /// Account of the most recent refactorization pivot fallback, if any.
    pub fn last_pivot_fallback(&self) -> Option<PivotFallback> {
        self.lu.last_pivot_fallback()
    }

    /// Raw kernel counters (the [`LuStats`] view of
    /// [`stats`](Self::stats), including the triangular-solve count).
    pub fn lu_stats(&self) -> LuStats {
        self.lu.stats()
    }

    /// Certification record of the most recent successful solve.
    pub fn last_quality(&self) -> SolveQuality {
        self.last_quality
    }
}

impl Solver for SparseSolver {
    fn solve_in_place(&mut self, triplets: &Triplets, rhs: &mut [f64]) -> Result<(), Error> {
        let cached = match (&self.map, &mut self.matrix) {
            (Some(map), Some(matrix)) => map.scatter(triplets, matrix),
            _ => false,
        };
        if !cached {
            self.rebuild(triplets);
        }
        let a = self.matrix.as_ref().expect("matrix cached above");
        // ----- permute b into elimination order when ordering is active -----
        if let Some(perm) = &self.perm {
            self.perm_scratch.clear();
            self.perm_scratch.resize(rhs.len(), 0.0);
            for (i, &v) in rhs.iter().enumerate() {
                self.perm_scratch[perm[i]] = v;
            }
            rhs.copy_from_slice(&self.perm_scratch);
        }
        self.lu.refactor(a)?;
        if crate::chaos::perturb_lu_active() {
            self.lu.perturb_pivot();
        }
        self.b.clear();
        self.b.extend_from_slice(rhs);
        self.residual.resize(rhs.len(), 0.0);
        self.lu.solve(rhs)?;
        // Norms are permutation-invariant and `a` IS the permuted matrix,
        // so the certification below is exact for the permuted system —
        // and backward error is identical in original coordinates.
        let norms = a.norms();
        let (lu, b) = (&self.lu, &self.b);
        self.last_quality = verify::certify_with(
            rhs,
            b,
            &mut self.residual,
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
            |v| lu.solve(v),
            |v| lu.solve_transposed(v),
        )?;
        // ----- back to original coordinates -----
        if let Some(perm) = &self.perm {
            for (i, slot) in self.perm_scratch.iter_mut().enumerate() {
                *slot = rhs[perm[i]];
            }
            rhs.copy_from_slice(&self.perm_scratch);
        }
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
                    ("ordered", usize::from(self.perm.is_some()).into()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::dense::DenseSolver;

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
        // Same pattern, but the second value set moves the column-0 pivot
        // winner from row 1 (magnitude 10) to row 0 (magnitude 10 vs 1),
        // forcing the replay to fall back to a full factorization.
        let mut t1 = Triplets::new(2);
        t1.add(0, 0, 1.0);
        t1.add(1, 0, 10.0);
        t1.add(0, 1, 1.0);
        t1.add(1, 1, 1.0);
        let a1 = SparseMatrix::from_triplets(&t1);
        let mut t2 = Triplets::new(2);
        t2.add(0, 0, 10.0);
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
        assert!((fb.ratio - 10.0).abs() < 1e-12, "{}", fb.ratio);
        assert_eq!(lu.stats().pivot_fallbacks, 1);
        assert!(fb.to_string().contains("column 0"), "{fb}");
        // The fallback still produced a correct factorization.
        let mut x = vec![11.0, 2.0];
        lu.solve(&mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
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
