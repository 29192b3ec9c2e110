//! Minimal complex arithmetic and a complex dense LU for AC analysis.
//!
//! AC systems are solved once per frequency point (not thousands of times
//! per run like transient), so a dense kernel is the right tool and no
//! external complex-number dependency is warranted.

// Index-based loops are kept in this numeric kernel: the indices are the
// mathematical objects (pivot rows, column positions).
#![allow(clippy::needless_range_loop)]

use crate::error::Error;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number (f64 parts).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates `re + j·im`.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    pub fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// A purely imaginary value.
    pub fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude in decibels (`20·log10|z|`).
    pub fn db(self) -> f64 {
        20.0 * self.abs().log10()
    }

    /// Phase in degrees.
    pub fn phase_deg(self) -> f64 {
        self.arg().to_degrees()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.re * rhs.re + rhs.im * rhs.im;
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Dense complex matrix with LU solve (partial pivoting by magnitude).
#[derive(Debug, Clone)]
pub struct ComplexDenseMatrix {
    n: usize,
    data: Vec<Complex>,
}

impl ComplexDenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![Complex::ZERO; n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: Complex) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] += value;
    }

    /// Solves `A x = b` in place (`rhs` holds `b` on entry, `x` on exit),
    /// destroying the matrix, and certifies the result by residual against
    /// a retained copy of the original entries (see `linalg::verify` for
    /// the certification contract). One step of iterative refinement is
    /// applied when the backward error misses tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] on pivot underflow, and
    /// [`Error::UntrustedSolution`] when refinement cannot bring the
    /// backward error under tolerance. The condition estimate on the
    /// failure path is the diagonal-pivot ratio `max|uₖₖ|/min|uₖₖ|` — a
    /// cheap lower-bound stand-in for the Hager estimate used by the real
    /// kernels, adequate for a once-per-frequency solve.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != dim()`.
    pub fn solve_in_place(mut self, rhs: &mut [Complex]) -> Result<super::SolveQuality, Error> {
        let n = self.n;
        assert_eq!(rhs.len(), n, "rhs dimension mismatch");
        // Retain the original entries: the factorization below overwrites
        // them, and the residual must be measured against the real matrix.
        let original = self.data.clone();
        let b: Vec<Complex> = rhs.to_vec();
        let perm = self.lu_factor()?;
        if crate::chaos::perturb_lu_active() && n > 0 {
            // Chaos drill: corrupt one pivot; only the certifier notices.
            let k = n / 2;
            self.data[perm[k] * n + k] = self.data[perm[k] * n + k] * Complex::real(1.0e3);
        }
        self.lu_solve(&perm, rhs);

        let tol = super::verify::bwerr_tol();
        let norm_a = {
            let mut worst = 0.0f64;
            for r in 0..n {
                let sum: f64 = original[r * n..(r + 1) * n].iter().map(|z| z.abs()).sum();
                worst = worst.max(sum);
            }
            worst
        };
        let b_inf = b.iter().fold(0.0f64, |m, z| m.max(z.abs()));
        let residual = |x: &[Complex]| -> Vec<Complex> {
            let mut r = b.clone();
            for row in 0..n {
                let mut ax = Complex::ZERO;
                for c in 0..n {
                    ax += original[row * n + c] * x[c];
                }
                r[row] = r[row] - ax;
            }
            r
        };
        // `f64::max` drops NaN operands, so a poisoned vector is detected
        // explicitly — its norm must fail certification, not vanish.
        let cinf = |v: &[Complex]| -> f64 {
            let mut m = 0.0f64;
            for z in v {
                let a = z.abs();
                if a.is_nan() {
                    return f64::NAN;
                }
                m = m.max(a);
            }
            m
        };
        let bwerr_of = |x: &[Complex], r: &[Complex]| {
            super::verify::backward_error(cinf(r), norm_a, cinf(x), b_inf)
        };
        let mut r = residual(rhs);
        let mut bwerr = bwerr_of(rhs, &r);
        let mut steps = 0usize;
        if bwerr.is_nan() {
            // Non-finite data: no residual can be measured and refinement
            // is futile. Record the NaN honestly and leave the failure to
            // the caller's non-finite guards (see `verify::certify_in_place`).
            return Ok(super::SolveQuality {
                backward_error: f64::NAN,
                refinement_steps: 0,
            });
        }
        if super::verify::uncertified(bwerr, tol) {
            self.lu_solve(&perm, &mut r);
            for (xi, di) in rhs.iter_mut().zip(&r) {
                *xi += *di;
            }
            steps = 1;
            r = residual(rhs);
            bwerr = bwerr_of(rhs, &r);
            if super::verify::uncertified(bwerr, tol) {
                let mut max_p = 0.0f64;
                let mut min_p = f64::INFINITY;
                for k in 0..n {
                    let p = self.data[perm[k] * n + k].abs();
                    max_p = max_p.max(p);
                    min_p = min_p.min(p);
                }
                return Err(Error::UntrustedSolution {
                    backward_error: bwerr,
                    tolerance: tol,
                    refinement_steps: steps,
                    cond_estimate: if min_p > 0.0 {
                        max_p / min_p
                    } else {
                        f64::INFINITY
                    },
                });
            }
        }
        Ok(super::SolveQuality {
            backward_error: bwerr,
            refinement_steps: steps,
        })
    }

    /// Factors `self` in place with partial pivoting by magnitude,
    /// returning the row permutation.
    fn lu_factor(&mut self) -> Result<Vec<usize>, Error> {
        let n = self.n;
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = self.data[perm[k] * n + k].abs();
            for r in (k + 1)..n {
                let mag = self.data[perm[r] * n + k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < 1e-13 {
                return Err(Error::SingularMatrix { column: k });
            }
            perm.swap(k, pivot_row);
            let pk = perm[k];
            let pivot = self.data[pk * n + k];
            for r in (k + 1)..n {
                let pr = perm[r];
                let factor = self.data[pr * n + k] / pivot;
                self.data[pr * n + k] = factor;
                if factor.abs() != 0.0 {
                    for c in (k + 1)..n {
                        let sub = factor * self.data[pk * n + c];
                        self.data[pr * n + c] = self.data[pr * n + c] - sub;
                    }
                }
            }
        }
        Ok(perm)
    }

    /// Applies the factors to solve `A x = b` in place.
    fn lu_solve(&self, perm: &[usize], rhs: &mut [Complex]) {
        let n = self.n;
        // Forward substitution.
        let mut y = vec![Complex::ZERO; n];
        for r in 0..n {
            let pr = perm[r];
            let mut sum = rhs[pr];
            for (c, &yc) in y.iter().enumerate().take(r) {
                sum = sum - self.data[pr * n + c] * yc;
            }
            y[r] = sum;
        }
        // Backward substitution.
        for r in (0..n).rev() {
            let pr = perm[r];
            let mut sum = y[r];
            for c in (r + 1)..n {
                sum = sum - self.data[pr * n + c] * rhs[c];
            }
            rhs[r] = sum / self.data[pr * n + r];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert!(close(a + b, Complex::new(4.0, 1.0)));
        assert!(close(a - b, Complex::new(-2.0, 3.0)));
        assert!(close(a * b, Complex::new(5.0, 5.0)));
        assert!(close((a / b) * b, a));
        assert!(close(-a, Complex::new(-1.0, -2.0)));
        assert!(close(a.conj(), Complex::new(1.0, -2.0)));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
        assert!((Complex::imag(1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((Complex::real(10.0).db() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn solves_complex_2x2() {
        // (1+j)x + y = 2;  x + (1-j)y = 0
        let mut m = ComplexDenseMatrix::zeros(2);
        m.add(0, 0, Complex::new(1.0, 1.0));
        m.add(0, 1, Complex::ONE);
        m.add(1, 0, Complex::ONE);
        m.add(1, 1, Complex::new(1.0, -1.0));
        let mut rhs = vec![Complex::new(2.0, 0.0), Complex::ZERO];
        // Verify by residual (matrix is consumed).
        let a00 = Complex::new(1.0, 1.0);
        let a11 = Complex::new(1.0, -1.0);
        m.clone().solve_in_place(&mut rhs).unwrap();
        let r0 = a00 * rhs[0] + rhs[1];
        let r1 = rhs[0] + a11 * rhs[1];
        assert!(close(r0, Complex::new(2.0, 0.0)), "{r0:?}");
        assert!(close(r1, Complex::ZERO), "{r1:?}");
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut m = ComplexDenseMatrix::zeros(2);
        m.add(0, 1, Complex::real(2.0));
        m.add(1, 0, Complex::real(1.0));
        let mut rhs = vec![Complex::real(4.0), Complex::real(3.0)];
        m.solve_in_place(&mut rhs).unwrap();
        assert!(close(rhs[0], Complex::real(3.0)));
        assert!(close(rhs[1], Complex::real(2.0)));
    }

    #[test]
    fn detects_singular() {
        let mut m = ComplexDenseMatrix::zeros(2);
        m.add(0, 0, Complex::ONE);
        m.add(1, 0, Complex::ONE);
        let mut rhs = vec![Complex::ONE, Complex::ONE];
        assert!(matches!(
            m.solve_in_place(&mut rhs),
            Err(Error::SingularMatrix { .. })
        ));
    }

    #[test]
    fn healthy_solve_reports_tiny_backward_error() {
        let mut m = ComplexDenseMatrix::zeros(2);
        m.add(0, 0, Complex::new(1.0, 1.0));
        m.add(0, 1, Complex::ONE);
        m.add(1, 0, Complex::ONE);
        m.add(1, 1, Complex::new(1.0, -1.0));
        let mut rhs = vec![Complex::new(2.0, 0.0), Complex::ZERO];
        let q = m.solve_in_place(&mut rhs).unwrap();
        assert_eq!(q.refinement_steps, 0);
        assert!(q.backward_error < 1e-12, "{}", q.backward_error);
    }

    #[test]
    fn perturbed_factorization_fails_certification() {
        let mut m = ComplexDenseMatrix::zeros(3);
        for i in 0..3 {
            m.add(i, i, Complex::new(4.0, 1.0));
        }
        m.add(0, 1, Complex::real(1.0));
        m.add(1, 2, Complex::imag(-1.0));
        m.add(2, 0, Complex::real(0.5));
        let mut rhs = vec![Complex::ONE; 3];
        let err = crate::chaos::with_perturb_lu(|| m.solve_in_place(&mut rhs).unwrap_err());
        assert!(err.is_untrusted_solution(), "{err:?}");
    }
}
