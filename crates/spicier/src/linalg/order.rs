//! Fill-reducing ordering for both LU kernels.
//!
//! Gilbert–Peierls factors columns in the order they are given; on
//! generator-shaped circuit matrices (long stage chains hanging off a few
//! shared rails) the natural MNA order eliminates the high-degree rail
//! nodes first, turning their neighbourhoods into near-dense cliques and
//! driving fill — and with it factor/refactor time — superlinear. This
//! module computes a **minimum-degree elimination order** on the
//! symmetrized nonzero pattern (the classic fill-graph variant of the
//! approximate-minimum-degree family KLU uses): chain interiors are
//! eliminated first, shared rails last, and the factors stay within a
//! small constant of the matrix nonzeros.
//!
//! The ordering is purely structural: it is computed once per sparsity
//! pattern and cached by [`SparseSolver`](super::sparse::SparseSolver)
//! alongside the stamp-slot map, and by
//! [`DenseSolver`](super::dense::DenseSolver) with its slot layout, so
//! the per-Newton-iteration cost is zero.
//! Numerical safety is untouched — the permuted matrix is still factored
//! with full partial pivoting and certified by the residual gate.

// Index-based loops are kept in these numeric kernels: the indices are
// the mathematical objects (CSC positions, local rows, pool slots).
#![allow(clippy::needless_range_loop)]

/// Work cap multiplier: the ordering gives up (falling back to natural
/// order for the remaining nodes) once the total adjacency-merge work
/// exceeds `WORK_CAP_FACTOR · nnz + n`. Circuit graphs stay far below
/// this; the cap only protects pathological dense-ish inputs, where the
/// natural order is no worse than a quadratic-time ordering attempt.
const WORK_CAP_FACTOR: usize = 64;

/// A neighbour list more than this many times longer than the clique
/// merged into it is updated in place by binary search instead of a
/// full merge.
const SPLICE_RATIO: usize = 8;

/// Builds the symmetrized adjacency (pattern of `A + Aᵀ`, diagonal
/// dropped) of the `(row, col)` entries `pattern`, as sorted per-node
/// neighbour lists.
pub(crate) fn symmetric_adjacency(
    n: usize,
    pattern: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (r, c) in pattern {
        if r != c {
            adj[r].push(c as u32);
            adj[c].push(r as u32);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Computes a minimum-degree elimination order for the symmetrized
/// pattern of the `n × n` CSC matrix described by `col_ptr`/`rows`.
///
/// Returns the permutation as `pinv`: `pinv[original] = position in the
/// elimination order`, i.e. the permuted matrix is
/// `A'[pinv[r], pinv[c]] = A[r, c]`. The result is always a valid
/// permutation; when the work cap trips, the tail of the order is the
/// natural order of the remaining nodes.
pub fn min_degree_pinv(n: usize, col_ptr: &[usize], rows: &[usize]) -> Vec<usize> {
    let pattern = (0..n).flat_map(|c| {
        rows[col_ptr[c]..col_ptr[c + 1]]
            .iter()
            .map(move |&r| (r, c))
    });
    min_degree_order(symmetric_adjacency(n, pattern), rows.len())
}

/// [`min_degree_pinv`] on a prebuilt [`symmetric_adjacency`] of a pattern
/// with `nnz` unique entries (diagonal included).
pub(crate) fn min_degree_order(mut adj: Vec<Vec<u32>>, nnz: usize) -> Vec<usize> {
    let n = adj.len();
    let work_cap = WORK_CAP_FACTOR * nnz + n;
    let mut work = 0usize;

    // Lazy-deletion min-heap on (degree, node): stale entries (degree
    // changed or node already eliminated) are skipped on pop. Ties break
    // toward the lower node index, keeping the order deterministic.
    let mut heap = std::collections::BinaryHeap::with_capacity(2 * n);
    for (i, list) in adj.iter().enumerate() {
        heap.push(std::cmp::Reverse((list.len() as u64, i as u32)));
    }
    let mut eliminated = vec![false; n];
    let mut pinv = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut merged: Vec<u32> = Vec::new();

    while let Some(std::cmp::Reverse((deg, v))) = heap.pop() {
        let v = v as usize;
        if eliminated[v] || adj[v].len() as u64 != deg {
            continue; // stale heap entry
        }
        eliminated[v] = true;
        pinv[v] = next;
        next += 1;
        if work >= work_cap {
            continue; // cap tripped: stop updating, drain by stale degrees
        }
        // Fill-graph update: v's neighbours become a clique. Each
        // neighbour's list becomes its union with v's, minus the two
        // endpoints and anything already eliminated. The lists of live
        // nodes never hold an eliminated node other than v (each
        // elimination rewrites all of its neighbours' lists), so a short
        // clique against a long list (a rail node losing one chain
        // neighbour) is spliced in place by binary search: the same list
        // as the merge, without walking the whole of it.
        let clique = std::mem::take(&mut adj[v]);
        for &u in &clique {
            let u = u as usize;
            if eliminated[u] {
                continue;
            }
            let list = &mut adj[u];
            work += list.len() + clique.len();
            if SPLICE_RATIO * clique.len() < list.len() {
                if let Ok(at) = list.binary_search(&(v as u32)) {
                    list.remove(at);
                }
                for &w in &clique {
                    if w as usize != u && !eliminated[w as usize] {
                        if let Err(at) = list.binary_search(&w) {
                            list.insert(at, w);
                        }
                    }
                }
            } else {
                merged.clear();
                let (a, b) = (&*list, &clique);
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() || j < b.len() {
                    let cand = match (a.get(i), b.get(j)) {
                        (Some(&x), Some(&y)) => {
                            if x <= y {
                                if x == y {
                                    j += 1;
                                }
                                i += 1;
                                x
                            } else {
                                j += 1;
                                y
                            }
                        }
                        (Some(&x), None) => {
                            i += 1;
                            x
                        }
                        (None, Some(&y)) => {
                            j += 1;
                            y
                        }
                        (None, None) => break,
                    };
                    let cu = cand as usize;
                    if cu != u && cu != v && !eliminated[cu] {
                        merged.push(cand);
                    }
                }
                list.clear();
                list.extend_from_slice(&merged);
            }
            heap.push(std::cmp::Reverse((list.len() as u64, u as u32)));
        }
    }
    // Any node never reached through the heap (cannot normally happen,
    // every node is pushed once) gets appended in natural order.
    for (i, slot) in pinv.iter_mut().enumerate() {
        if *slot == usize::MAX {
            *slot = next;
            next += 1;
            debug_assert!(next <= n, "pinv overflow at node {i}");
        }
    }
    debug_assert_eq!(next, n);
    pinv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::{SparseLu, SparseMatrix, Triplets};

    fn assert_is_permutation(pinv: &[usize]) {
        let mut seen = vec![false; pinv.len()];
        for &p in pinv {
            assert!(p < pinv.len() && !seen[p], "not a permutation: {pinv:?}");
            seen[p] = true;
        }
    }

    /// Hub-and-chain matrix: node 0 couples to every 10th chain node,
    /// the shape that blows up the natural elimination order.
    fn hub_chain(n: usize) -> Triplets {
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 4.0 + (i % 3) as f64);
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
            if i % 10 == 0 && i > 0 {
                t.add(0, i, -0.1);
                t.add(i, 0, -0.1);
            }
        }
        t
    }

    fn permuted(t: &Triplets, pinv: &[usize]) -> Triplets {
        let mut out = Triplets::new(t.dim());
        for &(r, c, v) in t.entries() {
            out.add(pinv[r], pinv[c], v);
        }
        out
    }

    fn factor_nnz(t: &Triplets) -> usize {
        let a = SparseMatrix::from_triplets(t);
        let mut lu = SparseLu::new();
        lu.factor(&a).expect("nonsingular");
        lu.factor_nnz()
    }

    #[test]
    fn returns_valid_permutation() {
        for n in [1usize, 2, 7, 50, 321] {
            let t = hub_chain(n);
            let a = SparseMatrix::from_triplets(&t);
            let pinv = min_degree_pinv(n, a.col_ptr(), a.rows());
            assert_is_permutation(&pinv);
        }
    }

    #[test]
    fn empty_and_diagonal_patterns() {
        let pinv = min_degree_pinv(0, &[0], &[]);
        assert!(pinv.is_empty());
        let mut t = Triplets::new(4);
        for i in 0..4 {
            t.add(i, i, 1.0);
        }
        let a = SparseMatrix::from_triplets(&t);
        let pinv = min_degree_pinv(4, a.col_ptr(), a.rows());
        assert_is_permutation(&pinv);
    }

    #[test]
    fn hub_is_eliminated_late() {
        let n = 200;
        let t = hub_chain(n);
        let a = SparseMatrix::from_triplets(&t);
        let pinv = min_degree_pinv(n, a.col_ptr(), a.rows());
        assert_is_permutation(&pinv);
        // The hub has degree ~n/10; minimum degree must defer it past the
        // chain interiors.
        assert!(
            pinv[0] > n / 2,
            "hub eliminated at position {} of {n}",
            pinv[0]
        );
    }

    #[test]
    fn ordering_cuts_fill_on_hub_chain() {
        let n = 640;
        let t = hub_chain(n);
        let a = SparseMatrix::from_triplets(&t);
        let pinv = min_degree_pinv(n, a.col_ptr(), a.rows());
        let natural = factor_nnz(&t);
        let ordered = factor_nnz(&permuted(&t, &pinv));
        assert!(
            ordered * 2 < natural,
            "ordered fill {ordered} vs natural {natural}"
        );
    }

    /// Reference ordering in which every update re-merges the whole
    /// neighbour list, the result the in-place splice must reproduce.
    /// Returns the order and whether the work cap tripped.
    fn merge_only_pinv(n: usize, col_ptr: &[usize], rows: &[usize]) -> (Vec<usize>, bool) {
        let pattern = (0..n).flat_map(|c| {
            rows[col_ptr[c]..col_ptr[c + 1]]
                .iter()
                .map(move |&r| (r, c))
        });
        let mut adj = symmetric_adjacency(n, pattern);
        let work_cap = WORK_CAP_FACTOR * rows.len() + n;
        let mut work = 0usize;
        let mut heap = std::collections::BinaryHeap::new();
        for (i, list) in adj.iter().enumerate() {
            heap.push(std::cmp::Reverse((list.len() as u64, i as u32)));
        }
        let mut eliminated = vec![false; n];
        let mut pinv = vec![usize::MAX; n];
        let mut next = 0usize;
        while let Some(std::cmp::Reverse((deg, v))) = heap.pop() {
            let v = v as usize;
            if eliminated[v] || adj[v].len() as u64 != deg {
                continue;
            }
            eliminated[v] = true;
            pinv[v] = next;
            next += 1;
            if work >= work_cap {
                continue;
            }
            let clique = std::mem::take(&mut adj[v]);
            for &u in &clique {
                let u = u as usize;
                if eliminated[u] {
                    continue;
                }
                let mut merged: Vec<u32> = adj[u]
                    .iter()
                    .chain(&clique)
                    .copied()
                    .filter(|&w| w as usize != u && w as usize != v && !eliminated[w as usize])
                    .collect();
                merged.sort_unstable();
                merged.dedup();
                work += adj[u].len() + clique.len();
                adj[u] = merged;
                heap.push(std::cmp::Reverse((adj[u].len() as u64, u as u32)));
            }
        }
        (pinv, work >= work_cap)
    }

    /// A random graph: `n` nodes, a chain, a few random edges per node,
    /// and `hubs` nodes each coupled to a random fifth of the others.
    fn random_hub_graph(rng: &mut xrand::StdRng, n: usize, hubs: usize) -> SparseMatrix {
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 1.0);
            if i + 1 < n {
                t.add(i, i + 1, 1.0);
            }
            for _ in 0..rng.gen_range(0..3) {
                t.add(i, rng.gen_range(0..n), 1.0);
            }
        }
        for _ in 0..hubs {
            let hub = rng.gen_range(0..n);
            for _ in 0..n / 5 {
                let j = rng.gen_range(0..n);
                t.add(hub, j, 1.0);
                t.add(j, hub, 1.0);
            }
        }
        SparseMatrix::from_triplets(&t)
    }

    #[test]
    fn splicing_keeps_the_merge_order() {
        let check = |a: &SparseMatrix| {
            let (want, tripped) = merge_only_pinv(a.dim(), a.col_ptr(), a.rows());
            assert_eq!(min_degree_pinv(a.dim(), a.col_ptr(), a.rows()), want);
            tripped
        };
        for n in [2usize, 50, 321, 1200] {
            assert!(!check(&SparseMatrix::from_triplets(&hub_chain(n))));
        }
        let mut rng = xrand::StdRng::seed_from_u64(0x0DE6);
        for _ in 0..24 {
            let n = rng.gen_range(20usize..400);
            let hubs = rng.gen_range(0usize..6);
            check(&random_hub_graph(&mut rng, n, hubs));
        }
        // Dense enough that the work cap trips part way.
        let mut tripped = false;
        for n in [120usize, 160] {
            let mut t = Triplets::new(n);
            for r in 0..n {
                for c in 0..n {
                    if r == c || rng.gen_bool(0.5) {
                        t.add(r, c, 1.0);
                    }
                }
            }
            tripped |= check(&SparseMatrix::from_triplets(&t));
        }
        assert!(tripped, "no case tripped the work cap");
    }

    #[test]
    fn asymmetric_pattern_is_symmetrized() {
        // Strictly triangular coupling: the symmetrized graph is a chain.
        let n = 30;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 2.0);
            if i + 1 < n {
                t.add(i, i + 1, -1.0); // upper only
            }
        }
        let a = SparseMatrix::from_triplets(&t);
        let pinv = min_degree_pinv(n, a.col_ptr(), a.rows());
        assert_is_permutation(&pinv);
    }
}
