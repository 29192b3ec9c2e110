//! Residual certification for linear solves.
//!
//! LU with partial pivoting is backward stable in theory, but the solver
//! stack below an analysis is exactly where silent corruption hides: a
//! pivot-growth blowup, a refactorization replay gone stale, bad memory, a
//! miscompiled kernel. This module makes every solve *prove* its answer:
//!
//! 1. after the triangular solves, the normalized ∞-norm **backward error**
//!    `‖Ax − b‖ / (‖A‖·‖x‖ + ‖b‖)` is computed from the original (unfactored)
//!    matrix — a couple of mat-vecs, negligible next to the factorization;
//! 2. when it exceeds the certification tolerance ([`DEFAULT_BWERR_TOL`],
//!    `1e-8`), **one step of iterative refinement** re-solves for
//!    the residual correction and the backward error is re-measured;
//! 3. when refinement cannot reach tolerance either, the solve fails with
//!    [`Error::UntrustedSolution`], carrying a Hager/Higham style **1-norm
//!    condition estimate** so the report can distinguish "the matrix is
//!    hopeless" from "the factorization is rotten".
//!
//! A healthy solve (backward error around machine epsilon) takes path 1
//! only: the solution vector is never touched, which is what keeps the
//! experiment CSV baselines byte-identical with certification enabled.

use crate::error::Error;

/// Default certification tolerance on the normalized backward error.
///
/// LU with partial pivoting on well-scaled MNA systems lands around
/// `1e-16`–`1e-13`; `1e-8` leaves orders of magnitude of slack for pivot
/// growth while still catching any genuinely corrupted factorization.
pub const DEFAULT_BWERR_TOL: f64 = 1e-8;

/// The certification tolerance every real solve is held to:
/// [`DEFAULT_BWERR_TOL`].
#[must_use]
pub fn bwerr_tol() -> f64 {
    DEFAULT_BWERR_TOL
}

/// Quality record of a certified linear solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveQuality {
    /// Normalized ∞-norm backward error `‖Ax−b‖ / (‖A‖‖x‖+‖b‖)` of the
    /// accepted solution.
    pub backward_error: f64,
    /// Iterative-refinement steps that were needed to reach tolerance
    /// (`0` for a healthy solve).
    pub refinement_steps: usize,
}

impl Default for SolveQuality {
    fn default() -> Self {
        Self {
            backward_error: 0.0,
            refinement_steps: 0,
        }
    }
}

impl SolveQuality {
    /// Merges two quality records pessimistically: the larger backward
    /// error and the larger refinement count.
    /// Used by analyses that perform many solves and report the worst.
    #[must_use]
    pub fn worst(self, other: SolveQuality) -> SolveQuality {
        SolveQuality {
            // `f64::max` drops NaN operands; a NaN record (non-finite
            // data, see `certify_in_place`) must dominate the merge.
            backward_error: if self.backward_error.is_nan() || other.backward_error.is_nan() {
                f64::NAN
            } else {
                self.backward_error.max(other.backward_error)
            },
            refinement_steps: self.refinement_steps.max(other.refinement_steps),
        }
    }
}

/// `‖v‖∞` (0 for an empty slice; NaN entries propagate as NaN).
pub fn inf_norm(v: &[f64]) -> f64 {
    // Four running maxima, so that the comparisons do not wait on each
    // other; a maximum does not depend on the order it is taken in. A
    // NaN loses every comparison, so a poisoned vector is flagged on the
    // side — a NaN norm must fail certification, not vanish from it.
    let mut lanes = [0.0f64; 4];
    let mut nan = false;
    let chunks = v.chunks_exact(4);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (m, x) in lanes.iter_mut().zip(chunk) {
            let a = x.abs();
            nan |= a.is_nan();
            *m = if a > *m { a } else { *m };
        }
    }
    for (m, x) in lanes.iter_mut().zip(rest) {
        let a = x.abs();
        nan |= a.is_nan();
        *m = if a > *m { a } else { *m };
    }
    if nan {
        return f64::NAN;
    }
    lanes
        .into_iter()
        .fold(0.0, |m, a| if a > m { a } else { m })
}

/// Normalized backward error `r / (‖A‖·‖x‖ + ‖b‖)` from precomputed norms.
///
/// A zero denominator with a zero residual is a perfect solve (`0`); a
/// zero denominator with a nonzero residual is reported as `∞`. NaN inputs
/// yield NaN, which callers must treat as failed certification (gate with
/// `uncertified`).
pub fn backward_error(residual_inf: f64, norm_a: f64, x_inf: f64, b_inf: f64) -> f64 {
    let denom = norm_a * x_inf + b_inf;
    if denom == 0.0 {
        if residual_inf == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        residual_inf / denom
    }
}

/// The certification gate: `true` when `bwerr` fails `tol`. A NaN
/// backward error counts as failed, never as passed.
pub(crate) fn uncertified(bwerr: f64, tol: f64) -> bool {
    bwerr.is_nan() || bwerr > tol
}

/// Hager/Higham 1-norm condition estimate `‖A‖₁ · est(‖A⁻¹‖₁)`.
///
/// `‖A⁻¹‖₁` is estimated by the classic Hager iteration: repeatedly solve
/// `A y = x` and `Aᵀ z = sign(y)`, moving `x` to the unit vector where
/// `|z|` peaks, until the estimate stops growing (at most 5 rounds — the
/// iteration almost always converges in 2–3). Each round costs one
/// forward and one transposed triangular solve on the existing factors.
///
/// Returns `None` when a solve fails or produces non-finite values, which
/// callers map to an infinite condition estimate.
pub fn condest_1norm<S, St>(
    n: usize,
    norm_a_1: f64,
    mut solve: S,
    mut solve_transposed: St,
) -> Option<f64>
where
    S: FnMut(&mut [f64]) -> Result<(), Error>,
    St: FnMut(&mut [f64]) -> Result<(), Error>,
{
    if n == 0 {
        return Some(0.0);
    }
    let mut x = vec![1.0 / n as f64; n];
    let mut est = 0.0f64;
    for _ in 0..5 {
        let mut y = x.clone();
        solve(&mut y).ok()?;
        let y_norm: f64 = y.iter().map(|v| v.abs()).sum();
        if !y_norm.is_finite() {
            return None;
        }
        est = est.max(y_norm);
        let mut z: Vec<f64> = y
            .iter()
            .map(|v| if *v >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        solve_transposed(&mut z).ok()?;
        let mut j = 0usize;
        let mut z_inf = 0.0f64;
        for (i, v) in z.iter().enumerate() {
            if v.abs() > z_inf {
                z_inf = v.abs();
                j = i;
            }
        }
        if !z_inf.is_finite() {
            return None;
        }
        let ztx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        if z_inf <= ztx {
            break;
        }
        x.fill(0.0);
        x[j] = 1.0;
    }
    Some(est * norm_a_1)
}

/// Certifies the solution `x` of `A x = b` in place, refining it once if
/// the backward error exceeds [`bwerr_tol`].
///
/// * `residual(x, out)` must write `out = b − A x` using the **original**
///   matrix values (triplets or a retained copy — the factors are not it);
/// * `solve` must apply the existing factorization (`out ← A⁻¹ out`);
/// * `solve_transposed` must apply the transposed factorization, and is
///   only called on the failure path for the condition estimate.
///
/// On success returns the measured [`SolveQuality`] and leaves `x` either
/// untouched (healthy solve) or refined to tolerance. On failure `x` holds
/// the last refined iterate and [`Error::UntrustedSolution`] is returned.
///
/// A NaN backward error (non-finite `b` or `x`) is **not** an error: the
/// quality record carries the NaN and `x` is left untouched. That failure
/// class belongs to the caller's non-finite guards — the Newton loop
/// rejects non-finite iterates and escalates its recovery ladder, which a
/// non-retriable error from here would forbid.
///
/// # Errors
///
/// [`Error::UntrustedSolution`] when one refinement step cannot bring the
/// (finite) backward error under tolerance; any error from `solve`
/// propagates.
pub fn certify_in_place<Res, S, St>(
    x: &mut [f64],
    b: &[f64],
    norm_a_inf: f64,
    norm_a_1: f64,
    residual: Res,
    solve: S,
    solve_transposed: St,
) -> Result<SolveQuality, Error>
where
    Res: FnMut(&[f64], &mut [f64]),
    S: FnMut(&mut [f64]) -> Result<(), Error>,
    St: FnMut(&mut [f64]) -> Result<(), Error>,
{
    let mut r = vec![0.0; x.len()];
    certify_with(
        x,
        b,
        &mut r,
        (norm_a_inf, norm_a_1),
        residual,
        solve,
        solve_transposed,
    )
}

/// [`certify_in_place`] with caller-owned residual scratch `r` (length
/// `x.len()`) and the norms as `(‖A‖∞, ‖A‖₁)`, so the kernels' per-solve
/// path allocates nothing.
pub(crate) fn certify_with<Res, S, St>(
    x: &mut [f64],
    b: &[f64],
    r: &mut [f64],
    (norm_a_inf, norm_a_1): (f64, f64),
    mut residual: Res,
    mut solve: S,
    mut solve_transposed: St,
) -> Result<SolveQuality, Error>
where
    Res: FnMut(&[f64], &mut [f64]),
    S: FnMut(&mut [f64]) -> Result<(), Error>,
    St: FnMut(&mut [f64]) -> Result<(), Error>,
{
    let tol = bwerr_tol();
    let b_inf = inf_norm(b);
    residual(x, r);
    let mut bwerr = backward_error(inf_norm(r), norm_a_inf, inf_norm(x), b_inf);
    let mut steps = 0usize;
    if bwerr.is_nan() {
        // Non-finite data (NaN in `b` or the computed `x`): no residual
        // can be measured and refinement is futile. Record the NaN
        // honestly instead of failing — this failure class belongs to the
        // caller's non-finite guards: the Newton loop rejects non-finite
        // iterates and *escalates its recovery ladder*, which an eager
        // (non-retriable) `UntrustedSolution` here would forbid. A NaN
        // usually means a bad bias region, not a corrupt factorization.
        return Ok(SolveQuality {
            backward_error: f64::NAN,
            refinement_steps: 0,
        });
    }
    if uncertified(bwerr, tol) {
        // One step of iterative refinement: d = A⁻¹ r, x ← x + d. The
        // residual is computed from the original matrix, so this corrects
        // ordinary rounding accumulation; it cannot (and must not) rescue
        // a genuinely corrupted factorization.
        solve(r)?;
        for (xi, di) in x.iter_mut().zip(r.iter()) {
            *xi += *di;
        }
        steps = 1;
        residual(x, r);
        bwerr = backward_error(inf_norm(r), norm_a_inf, inf_norm(x), b_inf);
        if uncertified(bwerr, tol) {
            let cond = condest_1norm(x.len(), norm_a_1, &mut solve, &mut solve_transposed)
                .unwrap_or(f64::INFINITY);
            if crate::telemetry::enabled() {
                crate::telemetry::record_failure(
                    "UntrustedSolution",
                    &format!(
                        "backward error {bwerr:.3e} above tolerance {tol:.3e} after {steps} \
                         refinement step(s), cond estimate {cond:.3e}"
                    ),
                );
            }
            return Err(Error::UntrustedSolution {
                backward_error: bwerr,
                tolerance: tol,
                refinement_steps: steps,
                cond_estimate: cond,
            });
        }
    }
    Ok(SolveQuality {
        backward_error: bwerr,
        refinement_steps: steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_error_edge_cases() {
        assert_eq!(backward_error(0.0, 0.0, 0.0, 0.0), 0.0);
        assert_eq!(backward_error(1.0, 0.0, 0.0, 0.0), f64::INFINITY);
        assert!((backward_error(1.0, 2.0, 3.0, 4.0) - 0.1).abs() < 1e-15);
    }

    #[test]
    fn inf_norm_basics() {
        assert_eq!(inf_norm(&[]), 0.0);
        assert_eq!(inf_norm(&[1.0, -3.0, 2.0]), 3.0);
        assert!(inf_norm(&[1.0, f64::NAN]).is_nan(), "NaN must not vanish");
        // Every lane and the remainder, against the sequential maximum.
        for len in 0..11 {
            let v: Vec<f64> = (0..len)
                .map(|i| ((i * 7 % 11) as f64 - 5.0) * 0.5)
                .collect();
            let seq = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            assert_eq!(inf_norm(&v).to_bits(), seq.to_bits(), "len {len}");
            for at in 0..len {
                let mut poisoned = v.clone();
                poisoned[at] = f64::NAN;
                assert!(inf_norm(&poisoned).is_nan(), "len {len} NaN at {at}");
            }
        }
    }

    #[test]
    fn uncertified_gate_fails_nan_and_inf() {
        assert!(!uncertified(1.0e-16, 1.0e-8));
        assert!(!uncertified(1.0e-8, 1.0e-8));
        assert!(uncertified(1.1e-8, 1.0e-8));
        assert!(uncertified(f64::NAN, 1.0e-8));
        assert!(uncertified(f64::INFINITY, 1.0e-8));
    }

    #[test]
    fn nan_data_is_recorded_not_errored() {
        // NaN in the system belongs to the caller's non-finite guards
        // (the Newton ladder must stay free to escalate), so the
        // certifier returns Ok with an honest NaN record and leaves `x`
        // untouched instead of raising a non-retriable error.
        let mut x = [1.0];
        let q = certify_in_place(
            &mut x,
            &[f64::NAN],
            1.0,
            1.0,
            |_x, out| out[0] = f64::NAN,
            |_v| panic!("refinement must not run on NaN data"),
            |_v| panic!("condest must not run on NaN data"),
        )
        .unwrap();
        assert!(q.backward_error.is_nan());
        assert_eq!(q.refinement_steps, 0);
        assert_eq!(x[0], 1.0);
    }

    #[test]
    fn worst_merge_is_nan_pessimistic() {
        let nan_q = SolveQuality {
            backward_error: f64::NAN,
            ..SolveQuality::default()
        };
        assert!(nan_q.worst(SolveQuality::default()).backward_error.is_nan());
        assert!(SolveQuality::default().worst(nan_q).backward_error.is_nan());
        let a = SolveQuality {
            backward_error: 2.0e-12,
            ..SolveQuality::default()
        };
        let b = SolveQuality {
            backward_error: 3.0e-12,
            ..SolveQuality::default()
        };
        assert_eq!(a.worst(b).backward_error, 3.0e-12);
    }

    #[test]
    fn condest_identity_is_one() {
        let est = condest_1norm(5, 1.0, |_v| Ok(()), |_v| Ok(())).unwrap();
        assert!((est - 1.0).abs() < 1e-12, "{est}");
    }

    #[test]
    fn condest_diagonal_matrix() {
        // A = diag(1, 1e-6): ‖A‖₁ = 1, ‖A⁻¹‖₁ = 1e6, cond = 1e6.
        let apply_inv = |v: &mut [f64]| {
            v[1] *= 1.0e6;
            Ok(())
        };
        let est = condest_1norm(2, 1.0, apply_inv, apply_inv).unwrap();
        assert!((est - 1.0e6).abs() < 1.0, "{est}");
    }

    #[test]
    fn certify_healthy_solve_does_not_touch_x() {
        // A = I, exact solve: residual is identically zero.
        let b = [1.0, -2.0, 3.0];
        let mut x = b;
        let q = certify_in_place(
            &mut x,
            &b,
            1.0,
            1.0,
            |x, out| {
                for i in 0..3 {
                    out[i] = b[i] - x[i];
                }
            },
            |_v| Ok(()),
            |_v| Ok(()),
        )
        .unwrap();
        assert_eq!(x, b);
        assert_eq!(q.backward_error, 0.0);
        assert_eq!(q.refinement_steps, 0);
    }

    #[test]
    fn refinement_rescues_slightly_wrong_solver() {
        // A = I but the "solver" scales by (1 − 1e-5): the first answer
        // misses tolerance, one refinement step lands ~1e-10.
        let b = [2.0, -1.0, 0.5];
        let bad_solve = |v: &mut [f64]| {
            for vi in v.iter_mut() {
                *vi *= 1.0 - 1.0e-5;
            }
            Ok(())
        };
        let mut x = b;
        bad_solve(&mut x).unwrap();
        let q = certify_in_place(
            &mut x,
            &b,
            1.0,
            1.0,
            |x, out| {
                for i in 0..3 {
                    out[i] = b[i] - x[i];
                }
            },
            bad_solve,
            bad_solve,
        )
        .unwrap();
        assert_eq!(q.refinement_steps, 1);
        assert!(q.backward_error <= bwerr_tol());
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-9, "{xi} vs {bi}");
        }
    }

    #[test]
    fn hopeless_solver_fails_certification_with_cond_estimate() {
        // The "solver" halves everything: refinement converges far too
        // slowly to reach tolerance in one step.
        let b = [1.0, 1.0];
        let half_solve = |v: &mut [f64]| {
            for vi in v.iter_mut() {
                *vi *= 0.5;
            }
            Ok(())
        };
        let mut x = b;
        half_solve(&mut x).unwrap();
        let err = certify_in_place(
            &mut x,
            &b,
            1.0,
            1.0,
            |x, out| {
                for i in 0..2 {
                    out[i] = b[i] - x[i];
                }
            },
            half_solve,
            half_solve,
        )
        .unwrap_err();
        match err {
            Error::UntrustedSolution {
                backward_error,
                tolerance,
                refinement_steps,
                cond_estimate,
            } => {
                assert!(backward_error > tolerance);
                assert_eq!(refinement_steps, 1);
                assert!(cond_estimate.is_finite() && cond_estimate > 0.0);
            }
            other => panic!("expected UntrustedSolution, got {other:?}"),
        }
    }

    #[test]
    fn worst_merges_pessimistically() {
        let a = SolveQuality {
            backward_error: 1e-12,
            refinement_steps: 0,
        };
        let b = SolveQuality {
            backward_error: 1e-10,
            refinement_steps: 1,
        };
        let w = a.worst(b);
        assert_eq!(w.backward_error, 1e-10);
        assert_eq!(w.refinement_steps, 1);
    }
}
