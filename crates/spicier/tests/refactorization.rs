//! Property tests of the numeric-refactorization fast paths: on a fixed
//! sparsity pattern, `SparseLu::refactor` must reproduce a from-scratch
//! `factor` bit-for-bit (same pivots, same arithmetic order), a
//! long-lived `DenseSolver` replaying its recorded elimination must match
//! a fresh one bit for bit, and the stamp-slot map must reproduce
//! `SparseMatrix::from_triplets` exactly.

use spicier::linalg::dense::DenseSolver;
use spicier::linalg::order::min_degree_pinv;
use spicier::linalg::sparse::SparseSolver;
use spicier::linalg::{DenseMatrix, Solver, SparseLu, SparseMatrix, StampMap, Triplets};
use xrand::StdRng;

/// `t`'s matrix in the minimum-degree order the dense solver factors it
/// in, with that order (`pinv[original] = position`).
fn ordered(t: &Triplets) -> (DenseMatrix, Vec<usize>) {
    let a = SparseMatrix::from_triplets(t);
    let pinv = min_degree_pinv(t.dim(), a.col_ptr(), a.rows());
    let mut m = DenseMatrix::zeros(t.dim());
    for &(r, c, v) in t.entries() {
        m.add(pinv[r], pinv[c], v);
    }
    (m, pinv)
}

/// Solves `t x = b` by the ordered full elimination (`lu_factor` and
/// `lu_solve` of [`ordered`]), `b` permuted in and `x` out.
fn ordered_solve(t: &Triplets, b: &[f64]) -> Vec<f64> {
    let (mut m, pinv) = ordered(t);
    let perm = m.lu_factor().expect("nonsingular in the order");
    let mut y = vec![0.0; b.len()];
    for (&v, &p) in b.iter().zip(&pinv) {
        y[p] = v;
    }
    m.lu_solve(&perm, &mut y);
    pinv.iter().map(|&p| y[p]).collect()
}

/// A random diagonally dominant stamp sequence: fixed keys, with some
/// duplicate `(row, col)` pairs like real MNA stamps produce.
fn random_pattern(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
    let mut keys = Vec::new();
    for i in 0..n {
        keys.push((i, i));
    }
    for _ in 0..rng.gen_range(n..4 * n) {
        keys.push((rng.gen_range(0..n), rng.gen_range(0..n)));
    }
    keys
}

/// Instantiates values on `keys`: strong diagonal, small off-diagonals,
/// scaled by `round` so every call yields a different numeric matrix on
/// the same pattern.
fn instantiate(rng: &mut StdRng, n: usize, keys: &[(usize, usize)]) -> Triplets {
    let mut t = Triplets::new(n);
    for &(r, c) in keys {
        let v = if r == c {
            rng.gen_range(4.0..10.0) * n as f64
        } else {
            rng.gen_range(-1.0..1.0)
        };
        t.add(r, c, v);
    }
    t
}

fn solve_bits(lu: &SparseLu, n: usize) -> Vec<u64> {
    let mut rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    lu.solve(&mut rhs).expect("factored");
    rhs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn refactor_matches_from_scratch_factor_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xFAC7);
    for _ in 0..32 {
        let n = rng.gen_range(3usize..40);
        let keys = random_pattern(&mut rng, n);
        let mut fast = SparseLu::new();
        fast.factor(&SparseMatrix::from_triplets(&instantiate(
            &mut rng, n, &keys,
        )))
        .expect("diagonally dominant");
        // Perturb the values repeatedly on the same pattern; the fast
        // path must agree with a fresh factorization to the last bit.
        for _ in 0..8 {
            let t = instantiate(&mut rng, n, &keys);
            let a = SparseMatrix::from_triplets(&t);
            fast.refactor(&a).expect("same pattern");
            let mut fresh = SparseLu::new();
            fresh.factor(&a).expect("diagonally dominant");
            assert_eq!(
                solve_bits(&fast, n),
                solve_bits(&fresh, n),
                "refactor diverged from factor on an {n}-unknown system"
            );
        }
        let stats = fast.stats();
        assert_eq!(stats.full_factors, 1, "no fallback expected");
        assert_eq!(stats.refactors, 8);
    }
}

#[test]
fn refactor_agrees_with_dense_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0D0C);
    for _ in 0..16 {
        let n = rng.gen_range(3usize..30);
        let keys = random_pattern(&mut rng, n);
        let mut lu = SparseLu::new();
        for _ in 0..4 {
            let t = instantiate(&mut rng, n, &keys);
            let a = SparseMatrix::from_triplets(&t);
            lu.refactor(&a).expect("diagonally dominant");
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
            let mut xs = b.clone();
            lu.solve(&mut xs).unwrap();
            let mut dense = DenseMatrix::from_triplets(&t);
            let perm = dense.lu_factor().unwrap();
            let mut xd = b.clone();
            dense.lu_solve(&perm, &mut xd);
            for (s, d) in xs.iter().zip(&xd) {
                assert!((s - d).abs() < 1e-8 * d.abs().max(1.0), "{s} vs {d}");
            }
        }
    }
}

#[test]
fn refactor_falls_back_when_pivot_order_degrades() {
    // Column 0 pivots on the larger of a[0][0] and a[1][0]; swapping their
    // magnitudes between calls forces a different pivot choice, which the
    // strict recheck must catch by redoing the full factorization.
    let build = |a00: f64, a10: f64| {
        let mut t = Triplets::new(2);
        t.add(0, 0, a00);
        t.add(1, 0, a10);
        t.add(0, 1, 2.0);
        t.add(1, 1, 7.0);
        SparseMatrix::from_triplets(&t)
    };
    let mut lu = SparseLu::new();
    lu.factor(&build(1.0, 5.0)).unwrap();
    assert_eq!(lu.stats().full_factors, 1);

    // Same pivot order: fast path.
    lu.refactor(&build(2.0, 6.0)).unwrap();
    assert_eq!(lu.stats().refactors, 1);
    assert_eq!(lu.stats().full_factors, 1);

    // Degraded: row 0 now dominates column 0.
    lu.refactor(&build(9.0, 0.5)).unwrap();
    assert_eq!(
        lu.stats().full_factors,
        2,
        "pivot degradation must trigger a full factorization"
    );
    // And the result is still correct: solve [9 2; 0.5 7] x = b.
    let mut rhs = vec![13.0, 15.0];
    lu.solve(&mut rhs).unwrap();
    assert!((9.0 * rhs[0] + 2.0 * rhs[1] - 13.0).abs() < 1e-12);
    assert!((0.5 * rhs[0] + 7.0 * rhs[1] - 15.0).abs() < 1e-12);
}

#[test]
fn refactor_handles_random_pivot_swaps() {
    // Randomly scale rows so the pivot argmax flips often; every call must
    // still match a from-scratch factorization bitwise (via fallback when
    // needed).
    let mut rng = StdRng::seed_from_u64(0x51AB5);
    for _ in 0..16 {
        let n = rng.gen_range(3usize..20);
        let keys = random_pattern(&mut rng, n);
        let mut fast = SparseLu::new();
        for _ in 0..6 {
            let mut t = Triplets::new(n);
            for &(r, c) in &keys {
                // Row scaling churns pivot choices without losing rank.
                let scale = if rng.gen_range(0.0..1.0) < 0.3 {
                    50.0
                } else {
                    1.0
                };
                let v = if r == c {
                    rng.gen_range(4.0..10.0) * n as f64
                } else {
                    rng.gen_range(-1.0..1.0)
                } * scale;
                t.add(r, c, v);
            }
            let a = SparseMatrix::from_triplets(&t);
            fast.refactor(&a).expect("full rank");
            let mut fresh = SparseLu::new();
            fresh.factor(&a).expect("full rank");
            assert_eq!(solve_bits(&fast, n), solve_bits(&fresh, n));
        }
    }
}

#[test]
fn stamp_map_scatter_reproduces_from_triplets() {
    let mut rng = StdRng::seed_from_u64(0x57A3);
    for _ in 0..64 {
        let n = rng.gen_range(2usize..30);
        let keys = random_pattern(&mut rng, n);
        let (map, mut cached) = StampMap::build(&instantiate(&mut rng, n, &keys));
        for _ in 0..4 {
            let t = instantiate(&mut rng, n, &keys);
            assert!(map.matches(&t));
            assert!(map.scatter(&t, &mut cached), "matching sequence scatters");
            assert_eq!(cached, SparseMatrix::from_triplets(&t));
        }
    }
}

#[test]
fn stamp_map_rejects_changed_sequence() {
    let mut a = Triplets::new(3);
    a.add(0, 0, 1.0);
    a.add(1, 1, 2.0);
    a.add(2, 2, 3.0);
    let (map, mut cached) = StampMap::build(&a);

    // Different key at one position.
    let mut b = Triplets::new(3);
    b.add(0, 0, 1.0);
    b.add(2, 1, 2.0);
    b.add(2, 2, 3.0);
    assert!(!map.matches(&b));
    assert!(!map.scatter(&b, &mut cached));

    // Extra entry.
    let mut c = a.clone();
    c.add(0, 1, 4.0);
    assert!(!map.scatter(&c, &mut cached));

    // Different dimension.
    let mut d = Triplets::new(4);
    d.add(0, 0, 1.0);
    d.add(1, 1, 2.0);
    d.add(2, 2, 3.0);
    assert!(!map.scatter(&d, &mut cached));
}

#[test]
fn caching_solver_matches_one_shot_solver_across_perturbations() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for _ in 0..16 {
        let n = rng.gen_range(3usize..35);
        let keys = random_pattern(&mut rng, n);
        let mut caching = SparseSolver::default();
        for _ in 0..5 {
            let t = instantiate(&mut rng, n, &keys);
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
            let mut x_cached = b.clone();
            caching.solve_in_place(&t, &mut x_cached).unwrap();
            let mut x_fresh = b.clone();
            SparseSolver::default()
                .solve_in_place(&t, &mut x_fresh)
                .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x_cached), bits(&x_fresh));
        }
        assert_eq!(caching.pattern_rebuilds(), 1);
        let stats = caching.stats();
        assert_eq!(stats.full_factors, 1);
        assert_eq!(stats.refactors, 4);
    }
}

/// Bit pattern of `v`, with every NaN mapped to one value (the payload
/// carries no meaning).
fn canonical_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Model of the dense solver's replay policy: up to 32 plans keyed by
/// pivot order, the least recently used evicted; a replay from the
/// previous factorization's plan, while that plan is cached; lazy
/// recording when two consecutive full factorizations agree.
#[derive(Default)]
struct PlanCacheModel {
    /// Cached pivot orders with the clock of their last use.
    plans: Vec<(Vec<usize>, u64)>,
    active: Option<usize>,
    last: Option<Vec<usize>>,
    clock: u64,
}

impl PlanCacheModel {
    /// Accounts one successful factorization whose partial-pivoting order
    /// is `pivots`; returns the path the solver must have taken.
    fn factor(&mut self, pivots: Vec<usize>, finite: bool) -> &'static str {
        self.clock += 1;
        let cached = self.plans.iter().position(|(order, _)| *order == pivots);
        let path = match (self.active, finite) {
            // A replay finishes, switching plans as needed, exactly when
            // the final order is cached.
            (Some(_), true) if cached.is_some() => {
                self.active = cached;
                "refactor"
            }
            (Some(_), false) => return "full",
            (active, _) => {
                self.active = cached;
                if cached.is_none() && self.last.as_ref() == Some(&pivots) {
                    if self.plans.len() == 32 {
                        let lru = (0..32).min_by_key(|&i| self.plans[i].1).unwrap();
                        self.plans.remove(lru);
                    }
                    self.plans.push((pivots.clone(), 0));
                    self.active = Some(self.plans.len() - 1);
                }
                self.last = Some(pivots);
                if active.is_some() {
                    "fallback"
                } else {
                    "full"
                }
            }
        };
        if let Some(active) = self.active {
            self.plans[active].1 = self.clock;
        }
        path
    }
}

#[test]
fn dense_refactor_matches_fresh_solver_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xDE45E);
    let (mut refactors, mut fallbacks) = (0, 0);
    for _ in 0..12 {
        let n = rng.gen_range(6usize..40);
        let mid = n / 2;
        let mut keys = random_pattern(&mut rng, n);
        // A slot that can out-pivot the middle diagonal, and a pair of
        // stamps on one off-diagonal slot that can cancel exactly.
        let flip = keys.len();
        keys.push((mid + 1, mid));
        let pair = keys.len();
        let (pr, pc) = (rng.gen_range(0..n), rng.gen_range(0..n));
        keys.push((pr, (pc + (pc == pr) as usize) % n));
        keys.push(keys[pair]);

        let mut live = DenseSolver::default();
        let mut model = PlanCacheModel::default();
        let (mut calls, mut abandoned) = (0, 0);
        for _ in 0..40 {
            let base = instantiate(&mut rng, n, &keys);
            let negated: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
            let flipped = rng.gen_bool(0.25);
            let cancel = rng.gen_bool(0.5);
            let nan_at = rng.gen_bool(0.05).then(|| rng.gen_range(0..keys.len()));
            let mut t = Triplets::new(n);
            for (i, &(r, c, v)) in base.entries().iter().enumerate() {
                let mut v = if i == flip && flipped {
                    50.0 * n as f64
                } else if i == pair + 1 && cancel {
                    -base.entries()[pair].2
                } else {
                    v
                };
                if negated[r] {
                    v = -v;
                }
                if nan_at == Some(i) {
                    v = f64::NAN;
                }
                t.add(r, c, v);
            }
            let rhs: Vec<f64> = (0..n)
                .map(|i| match rng.gen_range(0..4) {
                    0 => -0.0,
                    1 => 0.0,
                    _ => (i as f64 * 0.37).sin(),
                })
                .collect();

            let mut x_live = rhs.clone();
            let live_result = live.solve_in_place(&t, &mut x_live);
            let mut fresh = DenseSolver::default();
            let mut x_fresh = rhs.clone();
            let fresh_result = fresh.solve_in_place(&t, &mut x_fresh);
            match (live_result, fresh_result) {
                (Ok(()), Ok(())) => {
                    let bits = |v: &[f64]| v.iter().map(|&x| canonical_bits(x)).collect::<Vec<_>>();
                    assert_eq!(bits(&x_live), bits(&x_fresh), "x diverged at n = {n}");
                    assert_eq!(
                        canonical_bits(live.last_quality().backward_error),
                        canonical_bits(fresh.last_quality().backward_error),
                        "backward error diverged at n = {n}"
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string());
                    continue;
                }
                (a, b) => panic!("live {a:?} vs fresh {b:?} at n = {n}"),
            }
            calls += 1;
            let pivots = ordered(&t)
                .0
                .lu_factor()
                .expect("the fresh solver factored it");
            let finite = t.entries().iter().all(|e| e.2.is_finite());
            if model.factor(pivots, finite) == "fallback" {
                abandoned += 1;
            }
        }
        let stats = live.stats();
        assert_eq!(stats.full_factors + stats.refactors, calls);
        assert_eq!(stats.pivot_fallbacks, abandoned);
        refactors += stats.refactors;
        fallbacks += stats.pivot_fallbacks;
    }
    assert!(refactors > 0, "no call replayed the recorded elimination");
    assert!(fallbacks > 0, "no replay met a changed pivot");
}

/// A tridiagonal system whose partial-pivoting order leaves the diagonal
/// at step `flip` (row `flip + 1` out-pivots it), with every other row
/// negated so half the pivots are negative. `round` varies the values
/// but not the order.
fn flipped_tridiagonal(n: usize, flip: usize, round: usize) -> Triplets {
    let mut t = Triplets::new(n);
    let wobble = 1.0 + round as f64 * 0.002;
    for i in 0..n {
        let sign = if i % 2 == 1 { -1.0 } else { 1.0 };
        t.add(i, i, sign * (5.0 + i as f64 * 0.1) * wobble);
        if i + 1 < n {
            t.add(i, i + 1, sign * 0.5);
        }
        if i > 0 {
            let sub = if i - 1 == flip { 20.0 * wobble } else { 1.0 };
            t.add(i, i - 1, sign * sub);
        }
    }
    t
}

#[test]
fn dense_replay_switches_between_cached_pivot_orders() {
    let n = 10;
    // Step n − 1 has one row left, so n − 2 is the last step with a choice.
    let flips = [0, n / 2, n - 2];
    let base = DenseMatrix::from_triplets(&flipped_tridiagonal(n, n, 0))
        .lu_factor()
        .unwrap();
    for &flip in &flips {
        let order = DenseMatrix::from_triplets(&flipped_tridiagonal(n, flip, 0))
            .lu_factor()
            .unwrap();
        let first_change = (0..n).find(|&k| order[k] != base[k]);
        assert_eq!(first_change, Some(flip), "order {order:?}");
    }
    let mut live = DenseSolver::default();
    let mut full_after_cycle = Vec::new();
    let mut round = 0;
    for _cycle in 0..4 {
        for &flip in &flips {
            // A few Newton iterations per order, as between two switching
            // events of a CML pair.
            for _ in 0..3 {
                round += 1;
                let t = flipped_tridiagonal(n, flip, round);
                let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
                let mut x_live = b.clone();
                live.solve_in_place(&t, &mut x_live).unwrap();
                let mut fresh = DenseSolver::default();
                let mut x_fresh = b.clone();
                fresh.solve_in_place(&t, &mut x_fresh).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x_live), bits(&x_fresh), "round {round}");
                assert_eq!(
                    live.last_quality().backward_error.to_bits(),
                    fresh.last_quality().backward_error.to_bits(),
                    "round {round}"
                );
            }
        }
        full_after_cycle.push(live.stats().full_factors);
    }
    // The first cycle records each order; from then on every flip is a
    // switch between cached plans.
    assert_eq!(
        full_after_cycle[1], full_after_cycle[3],
        "{full_after_cycle:?}"
    );
    assert_eq!(
        live.stats().refactors + full_after_cycle[3],
        4 * 3 * flips.len()
    );
}

/// Solves `t` with a solver that has recorded `t`'s pivot order from two
/// warm-up systems `warm`, and with the ordered full elimination
/// ([`ordered_solve`]); returns both results' bits and whether the solver
/// replayed.
fn replayed_and_dense_bits(warm: &Triplets, t: &Triplets, b: &[f64]) -> (Vec<u64>, Vec<u64>, bool) {
    let mut live = DenseSolver::default();
    for _ in 0..2 {
        let mut rhs = vec![1.0; warm.dim()];
        live.solve_in_place(warm, &mut rhs).unwrap();
    }
    let refactors = live.stats().refactors;
    let mut x_live = b.to_vec();
    live.solve_in_place(t, &mut x_live).unwrap();
    let replayed = live.stats().refactors > refactors;
    let x_dense = ordered_solve(t, b);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (bits(&x_live), bits(&x_dense), replayed)
}

#[test]
fn structural_solve_takes_the_dense_solve_where_a_skipped_zero_matters() {
    // −0.0 in b: the dense forward solve turns −0.0 − (+0.0)·(−0.0) into
    // +0.0, which skipping the structurally zero L entry would not.
    let mut t = Triplets::new(3);
    t.add(0, 0, 2.0);
    t.add(0, 1, 1.0);
    t.add(1, 1, 3.0);
    t.add(2, 2, 4.0);
    let (live, dense, replayed) = replayed_and_dense_bits(&t, &t, &[-0.0, -0.0, -0.0]);
    assert!(replayed);
    assert_eq!(live, dense);

    // An overflowing factor: Wilkinson's growth matrix doubles the last
    // column at every step, so U[3][4] and U[4][4] overflow while every
    // entry, and their sum, is finite. x[4] is then 0 and x[3] NaN, and
    // the dense backward solve's +0.0·NaN makes x[0..3] NaN where a
    // structural solve would leave them finite.
    let growth = |s: f64| {
        let mut t = Triplets::new(5);
        for i in 0..5 {
            for j in 0..i {
                t.add(i, j, -1.0);
            }
            if i < 4 {
                t.add(i, i, 1.0);
            }
            t.add(i, 4, s);
        }
        t
    };
    let (live, dense, replayed) =
        replayed_and_dense_bits(&growth(1.0), &growth(3.0e307), &[1.0; 5]);
    assert!(replayed);
    assert!(f64::from_bits(dense[0]).is_nan(), "{dense:?}");
    assert_eq!(live, dense);

    // A NaN stamp: the full path, whose bits equal the one-shot solve's.
    let mut poisoned = growth(1.0);
    poisoned.add(2, 2, f64::NAN);
    let mut warm = growth(1.0);
    warm.add(2, 2, 0.0);
    let (live, dense, replayed) = replayed_and_dense_bits(&warm, &poisoned, &[1.0; 5]);
    assert!(!replayed);
    assert_eq!(live, dense);
}
