//! Minimal complex arithmetic for the AC and noise analyses' results.
//!
//! Their systems are solved as real equivalents on the real kernels (see
//! `analysis::ac`), so no complex solver and no external complex-number
//! dependency is needed.

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
}
