//! Dense LU factorization with partial pivoting.
//!
//! Used directly for small MNA systems and as the reference oracle for the
//! sparse kernel's tests. [`DenseSolver`] factors each system on the
//! minimum-degree [`order`](super::order)ing of its pattern, and replays
//! recorded eliminations, one per pivot order of a stamp pattern,
//! switching between them as the order moves; the replay is bit-identical
//! to a full factorization of the ordered matrix (see [`DenseSolver`]).
//! [`DenseMatrix::lu_factor`] is the natural-order reference.

// Index-based loops are kept in these numeric kernels: the indices are
// the mathematical objects (pivot rows, column positions).
#![allow(clippy::needless_range_loop)]

use super::order::{min_degree_order, symmetric_adjacency};
use super::{
    judge_pivot, merge_slots, sparse::LuStats, verify, verify::SolveQuality, Compiled,
    MergeScratch, Solver, Triplets, PIVOT_FLOOR,
};
use crate::error::Error;

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Builds a dense matrix by scattering `triplets` (duplicates add).
    pub fn from_triplets(triplets: &Triplets) -> Self {
        let mut m = Self::zeros(triplets.dim());
        for &(r, c, v) in triplets.entries() {
            m.data[r * m.n + c] += v;
        }
        m
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col]
    }

    /// Adds `value` to the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] += value;
    }

    /// Resets all entries to zero without reallocating.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y = vec![0.0; self.n];
        for r in 0..self.n {
            let row = &self.data[r * self.n..(r + 1) * self.n];
            y[r] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Computes `(‖A‖∞, ‖A‖₁)` — the max row and column absolute sums —
    /// in one pass. Must be called before [`lu_factor`](Self::lu_factor)
    /// overwrites the entries with the factors.
    pub fn norms(&self) -> (f64, f64) {
        let n = self.n;
        let mut row_max = 0.0f64;
        let mut col_sums = vec![0.0f64; n];
        for r in 0..n {
            let mut row_sum = 0.0;
            for c in 0..n {
                let a = self.data[r * n + c].abs();
                row_sum += a;
                col_sums[c] += a;
            }
            row_max = row_max.max(row_sum);
        }
        (row_max, col_sums.iter().fold(0.0f64, |m, &s| m.max(s)))
    }

    /// Factors `self` in place into `P A = L U` with partial pivoting and
    /// returns the row permutation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when no acceptable pivot exists in
    /// some column.
    pub fn lu_factor(&mut self) -> Result<Vec<usize>, Error> {
        let mut perm: Vec<usize> = (0..self.n).collect();
        eliminate(&mut self.data, self.n, &mut perm, 0)?;
        Ok(perm)
    }

    /// Solves `A x = b` given the factorization produced by
    /// [`lu_factor`](Self::lu_factor); `rhs` holds `b` on entry, `x` on exit.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != dim()` or `perm.len() != dim()`.
    pub fn lu_solve(&self, perm: &[usize], rhs: &mut [f64]) {
        let mut y = vec![0.0; self.n];
        self.lu_solve_with(perm, rhs, &mut y);
    }

    /// [`lu_solve`](Self::lu_solve) with caller-owned scratch `y` of
    /// length `dim()`, so repeated solves allocate nothing.
    fn lu_solve_with(&self, perm: &[usize], rhs: &mut [f64], y: &mut [f64]) {
        let n = self.n;
        assert_eq!(rhs.len(), n, "rhs dimension mismatch");
        assert_eq!(perm.len(), n, "permutation dimension mismatch");
        // Forward substitution with implicit unit diagonal, permuted rows.
        for r in 0..n {
            let pr = perm[r];
            let mut sum = rhs[pr];
            for c in 0..r {
                sum -= self.data[pr * n + c] * y[c];
            }
            y[r] = sum;
        }
        // Backward substitution.
        for r in (0..n).rev() {
            let pr = perm[r];
            let mut sum = y[r];
            for c in (r + 1)..n {
                sum -= self.data[pr * n + c] * rhs[c];
            }
            rhs[r] = sum / self.data[pr * n + r];
        }
    }

    /// Solves `Aᵀ x = b` given the factorization produced by
    /// [`lu_factor`](Self::lu_factor); `rhs` holds `b` on entry, `x` on
    /// exit. With `P A = L U` this is `Uᵀ z = b`, `Lᵀ w = z`, `x = Pᵀ w`.
    /// Used by the Hager condition estimator.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != dim()` or `perm.len() != dim()`.
    pub fn lu_solve_transposed(&self, perm: &[usize], rhs: &mut [f64]) {
        let n = self.n;
        assert_eq!(rhs.len(), n, "rhs dimension mismatch");
        assert_eq!(perm.len(), n, "permutation dimension mismatch");
        // Uᵀ z = b: forward substitution; Uᵀ[r][c] = U[c][r] lives at
        // data[perm[c] * n + r] for c ≤ r.
        let mut z = vec![0.0; n];
        for r in 0..n {
            let mut sum = rhs[r];
            for c in 0..r {
                sum -= self.data[perm[c] * n + r] * z[c];
            }
            z[r] = sum / self.data[perm[r] * n + r];
        }
        // Lᵀ w = z: backward substitution with implicit unit diagonal;
        // Lᵀ[r][c] = L[c][r] lives at data[perm[c] * n + r] for c > r.
        for r in (0..n).rev() {
            let mut sum = z[r];
            for c in (r + 1)..n {
                sum -= self.data[perm[c] * n + r] * z[c];
            }
            z[r] = sum;
        }
        // x = Pᵀ w: logical row r of the permuted system is physical
        // row perm[r].
        for r in 0..n {
            rhs[perm[r]] = z[r];
        }
    }
}

/// Runs partial-pivoting elimination steps `from..n` on the row-major
/// `n × n` matrix `data`, in place. `perm` is the row order the earlier
/// steps left (the identity when `from == 0`); on return `perm[k]` is
/// the pivot row of step `k`, and `data` holds `P A = L U` with `L`'s
/// unit diagonal implied.
///
/// The single elimination loop behind [`DenseMatrix::lu_factor`], the
/// solver's full factorization, and the continuation of an abandoned
/// replay.
///
/// # Errors
///
/// Returns [`Error::SingularMatrix`] when no acceptable pivot exists in
/// some column.
fn eliminate(data: &mut [f64], n: usize, perm: &mut [usize], from: usize) -> Result<(), Error> {
    for k in from..n {
        // Pivot search down column k: the first strict maximum.
        let mut pivot_row = k;
        let mut pivot_mag = data[perm[k] * n + k].abs();
        for r in (k + 1)..n {
            let mag = data[perm[r] * n + k].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag < PIVOT_FLOOR {
            judge_pivot(pivot_mag, k, || column_scale(data, n, perm, k))?;
        }
        perm.swap(k, pivot_row);
        let pk = perm[k];
        let pivot = data[pk * n + k];
        for r in (k + 1)..n {
            let pr = perm[r];
            let factor = data[pr * n + k] / pivot;
            data[pr * n + k] = factor;
            if factor != 0.0 {
                for c in (k + 1)..n {
                    data[pr * n + c] -= factor * data[pk * n + c];
                }
            }
        }
    }
    Ok(())
}

/// The scale step `k`'s pivot is judged against, with `data` and `perm`
/// as an elimination leaves them before the step: the largest, over the
/// rows still eligible to pivot, of the magnitude the row's entry in
/// column `k` would have if no update that formed it had cancelled.
/// With `L`'s multipliers `l` and column `k`'s computed entries `x` (the
/// `U` entries of the pivot rows, the current entries of the others),
/// that is `t_r = |x_r| + Σ_{j<k} |l_rj|·t_j`, where `t_j` of pivot row `j`
/// is formed the same way from the rows pivotal before it. A pivot far
/// under its `t` is what cancellation left, at this step or in an entry
/// it was computed from.
fn column_scale(data: &[f64], n: usize, perm: &[usize], k: usize) -> f64 {
    let uncancelled = |r: usize, terms: &[f64]| {
        terms
            .iter()
            .enumerate()
            .fold(data[r * n + k].abs(), |sum, (j, t)| {
                sum + data[r * n + j].abs() * t
            })
    };
    let mut terms = Vec::with_capacity(k);
    for &r in &perm[..k] {
        terms.push(uncancelled(r, &terms));
    }
    perm[k..]
        .iter()
        .map(|&r| uncancelled(r, &terms))
        .fold(0.0f64, f64::max)
}

/// Which path a [`DenseSolver`] factorization took; the `path` field of
/// the `dense_solve` telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactorPath {
    /// Full elimination.
    Full,
    /// Recorded plans replayed to the end, switching between them where
    /// the pivot order moved.
    Refactor,
    /// No recorded plan had the pivot order; the full elimination
    /// finished the replay.
    Fallback,
    /// The ordered elimination met a column with no acceptable pivot,
    /// and the full elimination in the natural order factored the
    /// matrix.
    Natural,
}

impl FactorPath {
    fn label(self) -> &'static str {
        match self {
            FactorPath::Full => "full",
            FactorPath::Refactor => "refactor",
            FactorPath::Fallback => "fallback",
            FactorPath::Natural => "natural",
        }
    }
}

/// Most pivot orders a [`DenseSolver`] keeps a recorded plan for, per
/// stamp pattern; the least recently used plan is evicted.
const MAX_PLANS: usize = 32;

/// Step `k`'s entries of a plan list: `list[ptr[k]..ptr[k + 1]]`.
fn step<'a>(list: &'a [u32], ptr: &[u32], k: usize) -> &'a [u32] {
    &list[ptr[k] as usize..ptr[k + 1] as usize]
}

/// The recorded elimination of one stamp pattern in one pivot order: a
/// symbolic run of [`eliminate`] over the unique stamped slots, fill
/// included. Step `k`'s entries of each list live at `ptr[k]..ptr[k + 1]`.
#[derive(Debug, Default, Clone)]
struct Plan {
    /// Pivot row of each step (the final row permutation).
    pivot_row: Vec<u32>,
    /// Position of step `k`'s pivot row in the search order when the
    /// step starts (the `perm` index [`eliminate`] swaps with `k`).
    pivot_pos: Vec<u32>,
    /// Flat offsets `r·n + k` of the rows `r` after position `k` in search
    /// order that are structurally nonzero in column `k`: the only rows
    /// that can win the search.
    cands: Vec<u32>,
    cand_ptr: Vec<u32>,
    /// Rows below the pivot that are structurally nonzero in column `k`.
    lower: Vec<u32>,
    lower_ptr: Vec<u32>,
    /// Columns after `k` that are structurally nonzero in the pivot row.
    upper: Vec<u32>,
    upper_ptr: Vec<u32>,
    /// Flat offsets of the structurally zero `L` entries of column `k`.
    zeros: Vec<u32>,
    zero_ptr: Vec<u32>,
    /// Clock of the last factorization that ended in this pivot order.
    last_used: u64,
}

/// Symbolic scratch shared by every recording: the structural nonzero
/// map, the search order, and a plan whose lists keep their capacity from
/// one recording to the next.
#[derive(Debug, Default)]
struct Recorder {
    nz: Vec<bool>,
    order: Vec<usize>,
    plan: Plan,
}

impl Recorder {
    /// Records the elimination of the stamped slots `pattern` (flat
    /// offsets into an `n × n` matrix) in pivot order `pivots`, and
    /// returns it with lists of exactly their length.
    fn record(&mut self, n: usize, pattern: &[usize], pivots: &[usize]) -> Plan {
        let Recorder { nz, order, plan } = self;
        plan.pivot_row.clear();
        plan.pivot_row.extend(pivots.iter().map(|&r| r as u32));
        plan.pivot_pos.clear();
        for list in [
            &mut plan.cands,
            &mut plan.lower,
            &mut plan.upper,
            &mut plan.zeros,
        ] {
            list.clear();
        }
        for ptr in [
            &mut plan.cand_ptr,
            &mut plan.lower_ptr,
            &mut plan.upper_ptr,
            &mut plan.zero_ptr,
        ] {
            ptr.clear();
            ptr.push(0);
        }
        nz.clear();
        nz.resize(n * n, false);
        for &slot in pattern {
            nz[slot] = true;
        }
        order.clear();
        order.extend(0..n);
        for k in 0..n {
            let pivot = pivots[k];
            let pos = k + order[k..]
                .iter()
                .position(|&r| r == pivot)
                .expect("pivots is a permutation");
            plan.pivot_pos.push(pos as u32);
            for &r in &order[k + 1..] {
                if nz[r * n + k] {
                    plan.cands.push((r * n + k) as u32);
                }
            }
            order.swap(k, pos);
            let upper_start = plan.upper.len();
            for c in (k + 1)..n {
                if nz[pivot * n + c] {
                    plan.upper.push(c as u32);
                }
            }
            for &r in &order[k + 1..] {
                if nz[r * n + k] {
                    plan.lower.push(r as u32);
                    for &c in &plan.upper[upper_start..] {
                        nz[r * n + c as usize] = true;
                    }
                } else {
                    plan.zeros.push((r * n + k) as u32);
                }
            }
            plan.cand_ptr.push(plan.cands.len() as u32);
            plan.lower_ptr.push(plan.lower.len() as u32);
            plan.upper_ptr.push(plan.upper.len() as u32);
            plan.zero_ptr.push(plan.zeros.len() as u32);
        }
        plan.clone()
    }
}

impl Plan {
    /// Solves `A x = b` with the factors a replay ending on this plan left
    /// in `data`, visiting only the structural nonzeros: the forward
    /// solve runs column by column over the `L` rows, the backward solve
    /// row by row over the `U` columns, each in the operation order of
    /// [`DenseMatrix::lu_solve`]. `rhs` holds `b` on entry and `x` on
    /// exit, both in the original order; `b` is permuted by `pinv` into
    /// `acc` and `x` back out of `x`, both `n`-long scratch.
    ///
    /// Returns `false`, with `rhs` untouched, when `b` holds a −0.0 or
    /// `x` is not finite: only then can a skipped `(±0)·v` term change a
    /// bit, so the caller runs the dense solve instead.
    fn solve(
        &self,
        data: &[f64],
        pinv: &[usize],
        rhs: &mut [f64],
        acc: &mut [f64],
        x: &mut [f64],
    ) -> bool {
        if rhs.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()) {
            return false;
        }
        let n = pinv.len();
        permute_in(rhs, pinv, acc);
        for k in 0..n {
            let yk = acc[self.pivot_row[k] as usize];
            for &r in step(&self.lower, &self.lower_ptr, k) {
                let r = r as usize;
                acc[r] -= data[r * n + k] * yk;
            }
        }
        for k in (0..n).rev() {
            let pk = self.pivot_row[k] as usize;
            let mut sum = acc[pk];
            for &c in step(&self.upper, &self.upper_ptr, k) {
                sum -= data[pk * n + c as usize] * x[c as usize];
            }
            x[k] = sum / data[pk * n + k];
        }
        if !x.iter().all(|v| v.is_finite()) {
            return false;
        }
        permute_out(x, pinv, rhs);
        true
    }
}

/// Factors `data` (the assembled, all-finite matrix of the recorded
/// pattern) by replaying `plans[start]`; `perm` must enter as the
/// identity. Each step reruns the pivot search over the candidate rows.
/// When the search picks another row, the replay switches to a plan with
/// the same pivots before the step and that row at it; when no plan has
/// them (or the search finds no acceptable pivot), it hands the matrix,
/// as it stands, to [`eliminate`] from that step on. Returns the path and
/// the plan the replay ended on. `urow` is scratch for the pivot row.
///
/// # Errors
///
/// [`Error::SingularMatrix`] from the continued elimination.
fn replay(
    plans: &[Plan],
    start: usize,
    data: &mut [f64],
    n: usize,
    perm: &mut [usize],
    urow: &mut Vec<f64>,
) -> Result<(FactorPath, usize), Error> {
    let mut p = start;
    for k in 0..n {
        let mut plan = &plans[p];
        // The search of `eliminate`, skipping rows that are structurally
        // zero in column k: they hold +0.0 and never beat the running
        // maximum.
        let mut best = perm[k] * n + k;
        let mut best_mag = data[best].abs();
        for &slot in step(&plan.cands, &plan.cand_ptr, k) {
            let mag = data[slot as usize].abs();
            if mag > best_mag {
                best_mag = mag;
                best = slot as usize;
            }
        }
        // A NaN pivot is handed over too: its full elimination spreads
        // NaN through every row below it. A singular one is handed over
        // for the elimination to report.
        if best_mag.is_nan()
            || best_mag < PIVOT_FLOOR
                && judge_pivot(best_mag, k, || column_scale(data, n, perm, k)).is_err()
        {
            eliminate(data, n, perm, k)?;
            return Ok((FactorPath::Fallback, p));
        }
        if best != plan.pivot_row[k] as usize * n + k {
            let row = ((best - k) / n) as u32;
            let prefix = &plan.pivot_row[..k];
            match plans
                .iter()
                .position(|q| q.pivot_row[k] == row && q.pivot_row[..k] == *prefix)
            {
                Some(q) => {
                    p = q;
                    plan = &plans[q];
                }
                None => {
                    eliminate(data, n, perm, k)?;
                    return Ok((FactorPath::Fallback, p));
                }
            }
        }
        perm.swap(k, plan.pivot_pos[k] as usize);
        let pk = plan.pivot_row[k] as usize * n;
        let pivot = data[pk + k];
        let lower = step(&plan.lower, &plan.lower_ptr, k);
        let upper = step(&plan.upper, &plan.upper_ptr, k);
        // Every L factor of the step first, so the divisions overlap; no
        // row update of this step reads column k or writes the pivot row,
        // so the values are those of `eliminate`'s interleaved order.
        for &r in lower {
            data[r as usize * n + k] /= pivot;
        }
        urow.clear();
        urow.extend(upper.iter().map(|&c| data[pk + c as usize]));
        let mut diverged = false;
        for &r in lower {
            let r = r as usize * n;
            let row = &mut data[r..r + n];
            let factor = row[k];
            if factor == 0.0 {
                continue;
            }
            if factor.is_finite() {
                for (&c, &u) in upper.iter().zip(urow.iter()) {
                    row[c as usize] -= factor * u;
                }
            } else {
                // factor · (+0.0) is NaN, so the full elimination also
                // changes this row's structurally zero columns.
                for c in (k + 1)..n {
                    data[r + c] -= factor * data[pk + c];
                }
                diverged = true;
            }
        }
        if pivot < 0.0 {
            // What `eliminate` stores as +0.0 / pivot.
            for &slot in step(&plan.zeros, &plan.zero_ptr, k) {
                data[slot as usize] = -0.0;
            }
        }
        if diverged {
            eliminate(data, n, perm, k + 1)?;
            return Ok((FactorPath::Fallback, p));
        }
    }
    Ok((FactorPath::Refactor, p))
}

/// Loads `slots` (duplicate-free, sorted row-major, row `r` at
/// `row_ptr[r]..row_ptr[r + 1]`) into the row-major `n × n` matrix `data`,
/// slot `i` at flat offset `offsets[i]` and +0.0 elsewhere, and returns
/// `(‖A‖∞, ‖A‖₁, every entry finite)` from the same pass. The norms are
/// summed over the slots in their own order, whatever the offsets: each
/// row sum adds its entries in column order and each column sum in row
/// order; unstamped entries are +0.0, and adding +0.0 to a non-negative
/// sum changes nothing, so the norms equal [`DenseMatrix::norms`] of the
/// unpermuted matrix bit for bit.
fn load_slots(
    data: &mut [f64],
    n: usize,
    slots: &[(usize, usize, f64)],
    row_ptr: &[usize],
    offsets: &[usize],
    col_sums: &mut Vec<f64>,
) -> (f64, f64, bool) {
    data.fill(0.0);
    col_sums.clear();
    col_sums.resize(n, 0.0);
    let mut row_max = 0.0f64;
    let mut total = 0.0f64;
    for r in 0..n {
        let mut row_sum = 0.0;
        for i in row_ptr[r]..row_ptr[r + 1] {
            let (_, c, v) = slots[i];
            data[offsets[i]] = v;
            let a = v.abs();
            row_sum += a;
            col_sums[c] += a;
        }
        row_max = row_max.max(row_sum);
        total += row_sum;
    }
    (
        row_max,
        col_sums.iter().fold(0.0f64, |m, &s| m.max(s)),
        total.is_finite(),
    )
}

/// Writes `v` (original order) into `out` at the positions `pinv` gives.
fn permute_in(v: &[f64], pinv: &[usize], out: &mut [f64]) {
    for (&x, &p) in v.iter().zip(pinv) {
        out[p] = x;
    }
}

/// Reads `v` (original order) back from `ordered`, the inverse of
/// [`permute_in`].
fn permute_out(ordered: &[f64], pinv: &[usize], v: &mut [f64]) {
    for (x, &p) in v.iter_mut().zip(pinv) {
        *x = ordered[p];
    }
}

/// Reusable dense solver workspace: the slot layout of the last stamp
/// pattern it saw, and replayed refactorizations over a cache of recorded
/// pivot orders.
///
/// **Slots.** The solver reads a system as slots only: one value per
/// distinct `(row, col)`, row-major, summed from +0.0 in emission order.
/// A sealed stamp program arrives as its slots (see [`Triplets`]). A
/// system pushed with [`Triplets::add`] by tests, benches or a caller of
/// the public API is merged into the solver's own slots by the seal's
/// merge, which sums exactly as a scatter into the cleared matrix does.
/// The solver loads the slots into the matrix and takes the norms in one
/// pass, and its certification residual runs over them. A pushed system
/// carries no program id, so its keys are compared on every solve. The
/// layout (the stamped offsets and their row boundaries) is compiled once
/// per stamp sequence, and the test `Compiled`, which the sparse kernel uses
/// too, decides when: so the layout, the plans below and the counters
/// survive a workspace shared by several assemblers of one topology.
///
/// **Ordering.** The layout includes a minimum-degree order of the slot
/// pattern ([`order`](super::order), as the sparse kernel computes it),
/// and the solver factors `P A Pᵀ`: slot `(r, c)` loads at
/// `(pinv[r], pinv[c])`, `b` is permuted in and `x` out at the copies the
/// triangular solve makes anyway, and the norms and the certification
/// residual stay on the slots in their original order. On the paper's
/// circuits the ordering cuts a factorization's `L` divisions about
/// threefold and its row updates more than twofold.
///
/// **Natural recheck.** A nearly singular Jacobian can round a pivot to
/// either side of the singular test in different orders. When the
/// ordered elimination finds no acceptable pivot in some column, the
/// solver reloads the slots in the natural order and eliminates them
/// there before it returns [`Error::SingularMatrix`], so an ordered solve
/// declares no system singular that the natural order factors. The
/// recheck counts as one full factorization and leaves the replay state
/// alone.
///
/// **Plans.** A plan is a symbolic elimination of the unique stamped slots
/// of the ordered matrix in one pivot order. The solver keeps up to 32
/// plans per stamp pattern, keyed by pivot order, evicts the least
/// recently used, and drops them all when the pattern changes. A replay updates only the structurally
/// nonzero `L` rows × `U` columns of each step and reruns the
/// partial-pivoting search over the candidate rows.
///
/// **Switching.** When step `k`'s search picks row `w` but the plan
/// recorded another row, the replay continues from step `k` with a cached
/// plan that has the same pivots before `k` and `w` at `k`. Equal pivots
/// before `k` mean the same search order and the same fill at step `k`,
/// because both depend only on the earlier pivots. So that plan's step-`k`
/// lists are exactly what a full elimination of this matrix sees, and the
/// search already run over the first plan's candidates is the search over
/// the new plan's. Only when no cached plan matches does `eliminate`
/// take over from step `k` (one pivot fallback). A switched replay counts
/// as a refactor.
///
/// **Replay policy.** The solver replays only while the previous
/// factorization's pivot order is cached: after a refactor, or after a
/// full factorization whose order is cached or was just recorded.
/// Otherwise it runs the full elimination. It records a new order, lazily,
/// when two consecutive full factorizations pick the same pivots. A matrix
/// with a non-finite entry always takes the full path and leaves the
/// replay state alone.
///
/// **Bit identity.** The replay is bit-identical to a full factorization
/// of the ordered matrix.
/// Every slot is summed from +0.0, so no assembled entry is −0.0, and no
/// update `a − f·u` can produce −0.0 from an `a` that is not −0.0.
/// Structurally zero entries therefore hold exactly +0.0, and each update
/// the replay skips is `a − f·(+0.0)` with `a ≠ −0.0` and `f` finite,
/// which leaves `a` unchanged. Rows whose factor is zero are skipped by
/// both paths. The one value a skipped step would have written is the
/// structurally zero `L` factor `+0.0 / pivot`, which the replay writes
/// as −0.0 when the pivot is negative. A non-finite factor (overflow)
/// makes `f·(+0.0)` NaN, so that row gets the full update and the rest of
/// the factorization runs on the full path.
///
/// **Structural solves.** After a replay the triangular solves also visit
/// only the final plan's structural nonzeros, in the dense loops'
/// operation order. A skipped term is `s − (±0)·v`. Without a −0.0 in `b`
/// no running sum is ever −0.0, and with `v` finite such a term leaves `s`
/// unchanged. So a right-hand side holding −0.0, or a non-finite result
/// (the only way a non-finite `v` shows), takes the dense solve instead.
#[derive(Debug, Default)]
pub struct DenseSolver {
    matrix: Option<DenseMatrix>,
    /// The system the layout was compiled for.
    compiled: Compiled,
    /// Minimum-degree order of the slot pattern: `pinv[original] =
    /// position`.
    pinv: Vec<usize>,
    /// Flat `pinv[row] * n + pinv[col]` offset of each distinct stamped
    /// entry (slot) in the ordered matrix, in slot order, and the slots'
    /// per-row boundaries in the original order.
    pattern: Vec<usize>,
    row_ptr: Vec<usize>,
    /// Row permutation of the current factorization.
    perm: Vec<usize>,
    /// Pivot sequence of the last full factorization on this pattern.
    last_pivots: Option<Vec<usize>>,
    /// Recorded plans of the cached pattern, one per pivot order.
    plans: Vec<Plan>,
    /// The plan of the previous factorization's pivot order, which the
    /// next call replays.
    active: Option<usize>,
    /// Factorization clock for least-recently-used eviction.
    clock: u64,
    recorder: Recorder,
    /// The slots of a system that arrives without them.
    merged: MergeScratch,
    // Per-solve scratch.
    col_sums: Vec<f64>,
    urow: Vec<f64>,
    b: Vec<f64>,
    y: Vec<f64>,
    acc: Vec<f64>,
    residual: Vec<f64>,
    last_quality: SolveQuality,
    stats: LuStats,
}

impl DenseSolver {
    /// Compiles `triplets`' stamp sequence into the slot layout and its
    /// ordering, sizes an `n × n` matrix, and forgets the recorded plans.
    /// The slots of a system without them are in `merged` already.
    fn rebuild(&mut self, triplets: &Triplets) {
        let n = triplets.dim();
        if !matches!(&self.matrix, Some(m) if m.dim() == n) {
            self.matrix = Some(DenseMatrix::zeros(n));
        }
        // Triplets bounds-checked every (row, col) when it was pushed, so
        // the flattened offsets are valid for an n × n matrix.
        self.compiled.compile(triplets);
        // The slots are the stamps' distinct keys, sorted already.
        let slots = triplets.slots().unwrap_or(&self.merged.slots);
        let keys = slots.iter().map(|&(r, c, _)| (r, c));
        self.pinv = min_degree_order(symmetric_adjacency(n, keys), slots.len());
        let pinv = &self.pinv;
        self.pattern.clear();
        self.pattern
            .extend(slots.iter().map(|&(r, c, _)| pinv[r] * n + pinv[c]));
        self.row_ptr.clear();
        self.row_ptr.resize(n + 1, 0);
        for &(r, ..) in slots {
            self.row_ptr[r + 1] += 1;
        }
        for r in 0..n {
            self.row_ptr[r + 1] += self.row_ptr[r];
        }
        self.last_pivots = None;
        self.plans.clear();
        self.active = None;
    }

    /// Updates the counters and the replay state after a factorization
    /// that took `path`, ended on plan `ended` (a refactor) and left its
    /// pivots in `perm`.
    fn record_path(&mut self, path: FactorPath, ended: usize) {
        self.clock += 1;
        match path {
            // The natural recheck leaves the replay state as it was.
            FactorPath::Natural => {
                self.stats.full_factors += 1;
                return;
            }
            FactorPath::Refactor => {
                self.stats.refactors += 1;
                self.active = Some(ended);
            }
            // Non-finite data while replaying: the plans stay as they are.
            FactorPath::Full if self.active.is_some() => self.stats.full_factors += 1,
            FactorPath::Full | FactorPath::Fallback => {
                self.stats.full_factors += 1;
                if path == FactorPath::Fallback {
                    self.stats.pivot_fallbacks += 1;
                }
                let perm = &self.perm;
                self.active = self.plans.iter().position(|plan| {
                    plan.pivot_row
                        .iter()
                        .zip(perm)
                        .all(|(&a, &b)| a as usize == b)
                });
                if self.active.is_none() && self.last_pivots.as_ref() == Some(perm) {
                    let plan = self.recorder.record(perm.len(), &self.pattern, perm);
                    let slot = if self.plans.len() < MAX_PLANS {
                        self.plans.push(plan);
                        self.plans.len() - 1
                    } else {
                        let lru = (0..self.plans.len())
                            .min_by_key(|&i| self.plans[i].last_used)
                            .expect("the cache is full");
                        self.plans[lru] = plan;
                        lru
                    };
                    self.active = Some(slot);
                }
                match &mut self.last_pivots {
                    Some(last) => last.clone_from(&self.perm),
                    None => self.last_pivots = Some(self.perm.clone()),
                }
            }
        }
        if let Some(active) = self.active {
            self.plans[active].last_used = self.clock;
        }
    }

    /// Certification record of the most recent successful solve.
    pub fn last_quality(&self) -> SolveQuality {
        self.last_quality
    }

    /// Kernel counters: full factorizations (pivot fallbacks included),
    /// replayed refactorizations, replays no cached plan could finish,
    /// triangular solves.
    pub fn stats(&self) -> LuStats {
        self.stats
    }
}

impl Solver for DenseSolver {
    fn solve_in_place(&mut self, triplets: &Triplets, rhs: &mut [f64]) -> Result<(), Error> {
        let n = triplets.dim();
        if triplets.slots().is_none() {
            merge_slots(n, triplets.entries(), &mut self.merged);
        }
        if !self.compiled.holds(triplets) {
            self.rebuild(triplets);
        }
        // The slots of a program, or those merged from a pushed system.
        let slots = triplets.slots().unwrap_or(&self.merged.slots);
        debug_assert_eq!(slots.len(), self.pattern.len(), "slots of another layout");
        let matrix = self.matrix.as_mut().expect("sized by rebuild");
        // Norms for the certification denominator, while the assembled
        // values are intact (the factorization overwrites them).
        let (norm_a_inf, norm_a_1, finite) = load_slots(
            &mut matrix.data,
            n,
            slots,
            &self.row_ptr,
            &self.pattern,
            &mut self.col_sums,
        );
        self.perm.clear();
        self.perm.extend(0..n);
        let factored = match self.active {
            Some(start) if finite => replay(
                &self.plans,
                start,
                &mut matrix.data,
                n,
                &mut self.perm,
                &mut self.urow,
            ),
            _ => eliminate(&mut matrix.data, n, &mut self.perm, 0).map(|()| (FactorPath::Full, 0)),
        };
        let (path, ended) = match factored {
            Ok(done) => done,
            Err(Error::SingularMatrix { .. }) => {
                // The natural recheck: the same slots, unpermuted.
                matrix.data.fill(0.0);
                for &(r, c, v) in slots {
                    matrix.data[r * n + c] = v;
                }
                self.perm.clear();
                self.perm.extend(0..n);
                eliminate(&mut matrix.data, n, &mut self.perm, 0)?;
                (FactorPath::Natural, 0)
            }
            Err(e) => return Err(e),
        };
        self.record_path(path, ended);
        let plan = (path == FactorPath::Refactor).then(|| &self.plans[ended]);
        let matrix = self.matrix.as_mut().expect("sized by rebuild");
        let perm = &self.perm;
        if crate::chaos::perturb_lu_active() && n > 0 {
            // Chaos drill: corrupt one pivot of the completed
            // factorization. The triangular solves still finish cleanly;
            // only the residual certifier below can notice.
            let k = n / 2;
            matrix.data[perm[k] * n + k] *= 1.0e3;
        }
        self.b.clear();
        self.b.extend_from_slice(rhs);
        self.y.resize(n, 0.0);
        self.acc.resize(n, 0.0);
        self.residual.resize(n, 0.0);
        let matrix: &DenseMatrix = matrix;
        // The factors' order: the ordering, or the identity after the
        // natural recheck.
        let pinv = (path != FactorPath::Natural).then_some(&self.pinv[..]);
        let slots = triplets.slots().unwrap_or(&self.merged.slots);
        let row_ptr = &self.row_ptr;
        let (b, y, acc) = (&self.b, &mut self.y, &mut self.acc);
        let mut lu_solve = |v: &mut [f64]| match pinv {
            Some(pinv) if plan.is_some_and(|plan| plan.solve(&matrix.data, pinv, v, acc, y)) => {}
            Some(pinv) => {
                permute_in(v, pinv, acc);
                matrix.lu_solve_with(perm, acc, y);
                permute_out(acc, pinv, v);
            }
            None => matrix.lu_solve_with(perm, v, y),
        };
        lu_solve(rhs);
        // Triangular-solve tally shared with the certifier's closures.
        let solves = std::cell::Cell::new(1usize);
        self.last_quality = verify::certify_with(
            rhs,
            b,
            &mut self.residual,
            (norm_a_inf, norm_a_1),
            // r = b − A x over the slots, the assembled matrix's nonzeros.
            |x, out| {
                for (r, out) in out.iter_mut().enumerate() {
                    let mut sum = b[r];
                    for &(_, c, v) in &slots[row_ptr[r]..row_ptr[r + 1]] {
                        sum -= v * x[c];
                    }
                    *out = sum;
                }
            },
            |v| {
                lu_solve(v);
                solves.set(solves.get() + 1);
                Ok(())
            },
            |v| {
                match pinv {
                    // (P A Pᵀ)ᵀ = P Aᵀ Pᵀ: the same permutation.
                    Some(pinv) => {
                        let mut w = vec![0.0; n];
                        permute_in(v, pinv, &mut w);
                        matrix.lu_solve_transposed(perm, &mut w);
                        permute_out(&w, pinv, v);
                    }
                    None => matrix.lu_solve_transposed(perm, v),
                }
                solves.set(solves.get() + 1);
                Ok(())
            },
        )?;
        self.stats.solves += solves.get();
        if crate::telemetry::enabled() {
            crate::telemetry::event(
                "dense_solve",
                &[
                    ("dim", n.into()),
                    ("path", path.label().into()),
                    ("bwerr", self.last_quality.backward_error.into()),
                    (
                        "refinement_steps",
                        self.last_quality.refinement_steps.into(),
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

    fn solve_dense(entries: &[(usize, usize, f64)], n: usize, b: &[f64]) -> Vec<f64> {
        let mut t = Triplets::new(n);
        for &(r, c, v) in entries {
            t.add(r, c, v);
        }
        let mut rhs = b.to_vec();
        DenseSolver::default().solve_in_place(&t, &mut rhs).unwrap();
        rhs
    }

    #[test]
    fn solves_identity() {
        let x = solve_dense(&[(0, 0, 1.0), (1, 1, 1.0)], 2, &[3.0, -4.0]);
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_2x2_with_pivoting_needed() {
        // Zero on the diagonal forces a row swap.
        let x = solve_dense(&[(0, 1, 2.0), (1, 0, 1.0), (1, 1, 1.0)], 2, &[2.0, 4.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_triplets_accumulate() {
        let x = solve_dense(&[(0, 0, 1.0), (0, 0, 1.0)], 1, &[4.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 0, 1.0);
        let mut rhs = vec![1.0, 1.0];
        let err = DenseSolver::default()
            .solve_in_place(&t, &mut rhs)
            .unwrap_err();
        assert!(matches!(err, Error::SingularMatrix { .. }));
    }

    #[test]
    fn residual_is_small_on_random_system() {
        // Deterministic pseudo-random fill (no external RNG needed here).
        let n = 24;
        let mut t = Triplets::new(n);
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut dense_entries = Vec::new();
        for r in 0..n {
            for c in 0..n {
                let v = if r == c { 8.0 + next() } else { next() * 0.5 };
                t.add(r, c, v);
                dense_entries.push((r, c, v));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        DenseSolver::default().solve_in_place(&t, &mut x).unwrap();
        let a = DenseMatrix::from_triplets(&t);
        let ax = a.mul_vec(&x);
        for (lhs, rhs) in ax.iter().zip(&b) {
            assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
        }
    }

    #[test]
    fn transposed_solve_matches_transposed_system() {
        // Pin the orientation of lu_solve_transposed: solve Aᵀ x = b and
        // check the residual against an explicit Aᵀ mat-vec.
        let n = 9;
        let mut m = DenseMatrix::zeros(n);
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for r in 0..n {
            for c in 0..n {
                m.add(r, c, if r == c { 6.0 + next() } else { next() });
            }
        }
        let a = m.clone();
        let perm = m.lu_factor().unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut x = b.clone();
        m.lu_solve_transposed(&perm, &mut x);
        for r in 0..n {
            let atx: f64 = (0..n).map(|c| a.get(c, r) * x[c]).sum();
            assert!((atx - b[r]).abs() < 1e-10, "row {r}: {atx} vs {}", b[r]);
        }
    }

    /// `data` (row-major `n × n`) with entry `(r, c)` moved to
    /// `(pinv[r], pinv[c])`.
    fn permuted(data: &[f64], n: usize, pinv: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                out[pinv[r] * n + pinv[c]] = data[r * n + c];
            }
        }
        out
    }

    #[test]
    fn replayed_factors_match_full_elimination_bitwise() {
        // Tridiagonal plus a corner stamp, with alternating signs so half
        // the pivots are negative and their structurally zero L entries
        // must read −0.0, as a full elimination stores them.
        let n = 12;
        let build = |round: usize| {
            let mut t = Triplets::new(n);
            for i in 0..n {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                t.add(i, i, sign * (6.0 + (i + round) as f64 * 0.25));
                if i + 1 < n {
                    t.add(i, i + 1, 1.0 + round as f64 * 0.125);
                    t.add(i + 1, i, -0.5);
                }
            }
            t.add(n - 1, 0, 0.75);
            t
        };
        let mut solver = DenseSolver::default();
        for round in 0..6 {
            let t = build(round);
            let mut rhs = vec![1.0; n];
            solver.solve_in_place(&t, &mut rhs).unwrap();
            let mut full = DenseMatrix::from_triplets(&t);
            full.data = permuted(&full.data, n, &solver.pinv);
            let perm = full.lu_factor().unwrap();
            let replayed = solver.matrix.as_ref().unwrap();
            let bits = |m: &DenseMatrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(replayed), bits(&full), "round {round}");
            assert_eq!(solver.perm, perm);
        }
        let stats = solver.stats();
        assert_eq!((stats.full_factors, stats.refactors), (2, 4));
    }

    #[test]
    fn norms_are_row_and_col_abs_sums() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, -2.0);
        m.add(1, 0, 3.0);
        m.add(1, 1, 4.0);
        let (inf, one) = m.norms();
        assert_eq!(inf, 7.0);
        assert_eq!(one, 6.0);
    }

    /// Merges a pushed system the way the solver does and loads its slots
    /// into `data`: the matrix and its norms.
    fn load_pushed(solver: &mut DenseSolver, t: &Triplets, data: &mut [f64]) -> (f64, f64, bool) {
        merge_slots(t.dim(), t.entries(), &mut solver.merged);
        solver.rebuild(t);
        let slots = &solver.merged.slots;
        load_slots(
            data,
            t.dim(),
            slots,
            &solver.row_ptr,
            &solver.pattern,
            &mut solver.col_sums,
        )
    }

    #[test]
    fn pattern_norms_match_dense_norms_bitwise() {
        // Duplicate stamps, an exactly cancelling pair and an empty row:
        // a system pushed entry by entry, merged into slots and normed over
        // them, must give the full matrix and its norms.
        let mut t = Triplets::new(4);
        for (r, c, v) in [
            (0, 0, 0.1),
            (0, 3, -0.7),
            (0, 0, 0.2),
            (2, 1, 1.0e-3),
            (2, 1, -1.0e-3),
            (3, 3, 5.5),
            (3, 0, -2.25),
            (2, 2, 0.3),
        ] {
            t.add(r, c, v);
        }
        let mut solver = DenseSolver::default();
        let full = DenseMatrix::from_triplets(&t);
        let mut data = vec![f64::NAN; 16];
        let (inf, one, finite) = load_pushed(&mut solver, &t, &mut data);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&data), bits(&permuted(&full.data, 4, &solver.pinv)));
        let (dense_inf, dense_one) = full.norms();
        assert_eq!(bits(&[inf, one]), bits(&[dense_inf, dense_one]));
        assert!(finite);
        // A NaN stamp on an existing key keeps the pattern.
        t.add(3, 0, f64::NAN);
        let (.., finite) = load_pushed(&mut solver, &t, &mut data);
        assert!(!finite);
    }

    /// A random stamp program: keys with ground on either side now and
    /// then, and repeats of earlier keys.
    fn random_keys(rng: &mut xrand::StdRng, n: usize) -> Vec<(Option<usize>, Option<usize>)> {
        let mut keys: Vec<(Option<usize>, Option<usize>)> = Vec::new();
        for _ in 0..rng.gen_range(1..4 * n + 2) {
            let node = |rng: &mut xrand::StdRng| (!rng.gen_bool(0.15)).then(|| rng.gen_range(0..n));
            let key = match rng.choose(&keys) {
                Some(&key) if rng.gen_bool(0.4) => key,
                _ => (node(rng), node(rng)),
            };
            keys.push(key);
        }
        keys
    }

    /// One assembly's values: signed zeros, stamps that cancel an earlier
    /// stamp of their key, and keys whose every stamp is zero.
    fn random_values(rng: &mut xrand::StdRng, keys: &[(Option<usize>, Option<usize>)]) -> Vec<f64> {
        let zeroed: Vec<(Option<usize>, Option<usize>)> =
            keys.iter().filter(|_| rng.gen_bool(0.1)).copied().collect();
        let mut values: Vec<f64> = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            let earlier = keys[..i].iter().position(|k| k == key);
            let v = if zeroed.contains(key) || rng.gen_bool(0.1) {
                if rng.gen_bool(0.5) {
                    -0.0
                } else {
                    0.0
                }
            } else if let Some(j) = earlier.filter(|_| rng.gen_bool(0.3)) {
                -values[j]
            } else {
                (rng.next_f64() - 0.5) * 10f64.powi(rng.gen_range(-6..7))
            };
            values.push(v);
        }
        values
    }

    #[test]
    fn slot_path_matches_per_stamp_scatter_bitwise() {
        use crate::linalg::ProgramKey;
        let mut rng = xrand::StdRng::seed_from_u64(0x5107);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for case in 0..60 {
            let n = if case % 10 == 0 {
                crate::linalg::DENSE_CUTOFF
            } else {
                rng.gen_range(1..24)
            };
            let keys = random_keys(&mut rng, n);
            let key = ProgramKey {
                owner: 1,
                pattern: 0,
            };
            let mut t = Triplets::new(n);
            let mut solver = DenseSolver::default();
            let mut id = None;
            for round in 0..5 {
                let values = random_values(&mut rng, &keys);
                t.open(n, key);
                for (&key, &v) in keys.iter().zip(&values) {
                    t.stamps([key], [v]);
                }
                t.seal();
                assert!(
                    id.is_none() || t.program_id() == id,
                    "round {round} recompiled"
                );
                id = t.program_id();

                // The reference: every stamp added into +0.0 in emission
                // order, as a per-stamp scatter does.
                let mut reference = DenseMatrix::zeros(n);
                let mut raw = Triplets::new(n);
                for (&key, &v) in keys.iter().zip(&values) {
                    if let (Some(r), Some(c)) = key {
                        reference.data[r * n + c] += v;
                        raw.add(r, c, v);
                    }
                }
                let slots = t.slots().expect("a sealed program is slotted");
                assert!(slots.iter().all(|s| s.2.to_bits() != (-0.0f64).to_bits()));
                solver.rebuild(&t);
                let mut data = vec![f64::NAN; n * n];
                let (inf, one, finite) = load_slots(
                    &mut data,
                    n,
                    slots,
                    &solver.row_ptr,
                    &solver.pattern,
                    &mut solver.col_sums,
                );
                let (ref_inf, ref_one) = reference.norms();
                let ordered = permuted(&reference.data, n, &solver.pinv);
                assert_eq!(bits(&data), bits(&ordered), "case {case} round {round}");
                assert_eq!(
                    bits(&[inf, one]),
                    bits(&[ref_inf, ref_one]),
                    "case {case} round {round}"
                );
                assert!(finite);
                assert_eq!(
                    bits(&DenseMatrix::from_triplets(&t).data),
                    bits(&reference.data)
                );
                // A system pushed stamp by stamp merges into the same
                // matrix and norms over the same layout.
                let mut per_entry = vec![f64::NAN; n * n];
                let (entry_inf, entry_one, entry_finite) =
                    load_pushed(&mut DenseSolver::default(), &raw, &mut per_entry);
                assert_eq!(
                    bits(&per_entry),
                    bits(&ordered),
                    "case {case} round {round}"
                );
                assert_eq!(
                    bits(&[entry_inf, entry_one]),
                    bits(&[ref_inf, ref_one]),
                    "case {case} round {round}"
                );
                assert!(entry_finite);

                // The solve reads the same slots whether the program or a
                // raw push of its stamps brings them.
                let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
                let (mut x_slots, mut x_raw) = (b.clone(), b.clone());
                let from_slots = DenseSolver::default().solve_in_place(&t, &mut x_slots);
                let mut fresh = DenseSolver::default();
                let from_raw = fresh.solve_in_place(&raw, &mut x_raw);
                assert_eq!(from_slots.is_ok(), from_raw.is_ok(), "case {case}");
                assert_eq!(bits(&x_slots), bits(&x_raw), "case {case} round {round}");
            }
        }
    }

    #[test]
    fn slot_norms_flag_a_non_finite_entry() {
        let slots = [(0, 0, 1.0), (1, 0, f64::NAN), (1, 1, 2.0)];
        let mut data = vec![0.0; 4];
        let (.., finite) = load_slots(
            &mut data,
            2,
            &slots,
            &[0, 1, 3],
            &[0, 2, 3],
            &mut Vec::new(),
        );
        assert!(!finite);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 3.0);
        m.add(1, 1, 4.0);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }
}
