//! Cubic polynomials, the trajectory primitive of the Corki algorithm.
//!
//! The Corki policy head outputs one cubic function per controlled dimension
//! (Equation 4 of the paper): `r(t) = a t³ + b t² + c t + d`. The cubic form
//! is chosen because its first and second derivatives are continuous, so the
//! reference velocity and acceleration required by the task-space computed
//! torque controller are available analytically.

use serde::{Deserialize, Serialize};

/// A cubic polynomial `a·t³ + b·t² + c·t + d`.
///
/// ```
/// use corki_math::CubicPoly;
/// let p = CubicPoly::new(1.0, -2.0, 0.5, 3.0);
/// assert_eq!(p.eval(0.0), 3.0);
/// assert!((p.derivative().eval(0.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CubicPoly {
    /// Cubic coefficient.
    pub a: f64,
    /// Quadratic coefficient.
    pub b: f64,
    /// Linear coefficient.
    pub c: f64,
    /// Constant coefficient.
    pub d: f64,
}

impl CubicPoly {
    /// Creates a cubic polynomial from its coefficients (highest order first).
    pub const fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
        CubicPoly { a, b, c, d }
    }

    /// The zero polynomial.
    pub const fn zero() -> Self {
        CubicPoly::new(0.0, 0.0, 0.0, 0.0)
    }

    /// A constant polynomial.
    pub const fn constant(d: f64) -> Self {
        CubicPoly::new(0.0, 0.0, 0.0, d)
    }

    /// Evaluates the polynomial at `t` (Horner's rule).
    pub fn eval(&self, t: f64) -> f64 {
        ((self.a * t + self.b) * t + self.c) * t + self.d
    }

    /// Evaluates the first derivative at `t`.
    pub fn eval_derivative(&self, t: f64) -> f64 {
        (3.0 * self.a * t + 2.0 * self.b) * t + self.c
    }

    /// Evaluates the second derivative at `t`.
    pub fn eval_second_derivative(&self, t: f64) -> f64 {
        6.0 * self.a * t + 2.0 * self.b
    }

    /// Returns the derivative as a new (degenerate) cubic with `a = 0`.
    pub fn derivative(&self) -> CubicPoly {
        CubicPoly::new(0.0, 3.0 * self.a, 2.0 * self.b, self.c)
    }

    /// Fits the unique cubic satisfying boundary conditions on position and
    /// velocity at `t = 0` and `t = duration`.
    ///
    /// This is the classical cubic-spline segment used in robot trajectory
    /// planning and is how expert demonstrations are converted to trajectory
    /// ground truth in `corki-sim`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not strictly positive.
    pub fn from_boundary_conditions(
        start_pos: f64,
        start_vel: f64,
        end_pos: f64,
        end_vel: f64,
        duration: f64,
    ) -> Self {
        assert!(duration > 0.0, "duration must be positive");
        let t = duration;
        let d = start_pos;
        let c = start_vel;
        // Solve for a, b from the end conditions.
        let dp = end_pos - d - c * t;
        let dv = end_vel - c;
        let b = (3.0 * dp - dv * t) / (t * t);
        let a = (dv * t - 2.0 * dp) / (t * t * t);
        CubicPoly::new(a, b, c, d)
    }

    /// Least-squares fit of a cubic to `(t, value)` samples.
    ///
    /// Used by the Corki trajectory head supervision path: the ground-truth
    /// trajectory is sampled at the camera rate and a cubic is fitted to it.
    /// With fewer than four samples the fit degrades gracefully (falls back to
    /// lower-order forms); with zero samples the zero polynomial is returned.
    pub fn fit_least_squares(samples: &[(f64, f64)]) -> Self {
        Self::fit_least_squares_iter(samples.iter().copied())
    }

    /// Least-squares cubic fit streamed from an iterator of `(t, value)`
    /// samples — the allocation-free twin of
    /// [`CubicPoly::fit_least_squares`]: the normal equations are accumulated
    /// in a single pass over stack arrays, so callers (e.g. the per-dimension
    /// trajectory fit) never materialise a sample buffer. Bit-identical to
    /// the slice-based fit (same accumulation order).
    pub fn fit_least_squares_iter(samples: impl IntoIterator<Item = (f64, f64)>) -> Self {
        // Build the 4x4 normal equations sum(t^i+j) x = sum(t^i y) for the
        // basis [t^3, t^2, t, 1]. For degenerate sample sets fall back by
        // ridge-regularising the diagonal slightly.
        let mut ata = [[0.0f64; 4]; 4];
        let mut atb = [0.0f64; 4];
        let mut count = 0usize;
        let mut first_value = 0.0;
        for (t, y) in samples {
            if count == 0 {
                first_value = y;
            }
            count += 1;
            let basis = [t * t * t, t * t, t, 1.0];
            for i in 0..4 {
                atb[i] += basis[i] * y;
                for j in 0..4 {
                    ata[i][j] += basis[i] * basis[j];
                }
            }
        }
        match count {
            0 => CubicPoly::zero(),
            1 => CubicPoly::constant(first_value),
            _ => {
                // Tiny ridge term keeps the system solvable when samples are
                // not distinct enough to determine all four coefficients.
                for (i, row) in ata.iter_mut().enumerate() {
                    row[i] += 1e-9;
                }
                let coeffs = solve4(ata, atb);
                CubicPoly::new(coeffs[0], coeffs[1], coeffs[2], coeffs[3])
            }
        }
    }
}

/// Solves a 4×4 linear system with Gaussian elimination and partial pivoting.
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> [f64; 4] {
    for k in 0..4 {
        // Pivot.
        let mut max_row = k;
        for i in (k + 1)..4 {
            if a[i][k].abs() > a[max_row][k].abs() {
                max_row = i;
            }
        }
        a.swap(k, max_row);
        b.swap(k, max_row);
        let pivot = a[k][k];
        if pivot.abs() < 1e-15 {
            continue;
        }
        let pivot_row = a[k];
        for i in (k + 1)..4 {
            let f = a[i][k] / pivot;
            for (aij, pkj) in a[i][k..4].iter_mut().zip(&pivot_row[k..4]) {
                *aij -= f * pkj;
            }
            b[i] -= f * b[k];
        }
    }
    let mut x = [0.0f64; 4];
    for i in (0..4).rev() {
        let mut acc = b[i];
        for j in (i + 1)..4 {
            acc -= a[i][j] * x[j];
        }
        x[i] = if a[i][i].abs() < 1e-15 { 0.0 } else { acc / a[i][i] };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eval_and_derivatives() {
        let p = CubicPoly::new(2.0, -1.0, 3.0, 0.5);
        let t: f64 = 1.5;
        let expected = 2.0 * t.powi(3) - t.powi(2) + 3.0 * t + 0.5;
        assert!((p.eval(t) - expected).abs() < 1e-12);
        let d_expected = 6.0 * t.powi(2) - 2.0 * t + 3.0;
        assert!((p.eval_derivative(t) - d_expected).abs() < 1e-12);
        assert!((p.eval_second_derivative(t) - (12.0 * t - 2.0)).abs() < 1e-12);
        assert!((p.derivative().eval(t) - d_expected).abs() < 1e-12);
    }

    #[test]
    fn boundary_condition_fit_hits_endpoints() {
        let p = CubicPoly::from_boundary_conditions(1.0, 0.5, -2.0, 0.0, 0.3);
        assert!((p.eval(0.0) - 1.0).abs() < 1e-12);
        assert!((p.eval_derivative(0.0) - 0.5).abs() < 1e-12);
        assert!((p.eval(0.3) - -2.0).abs() < 1e-10);
        assert!(p.eval_derivative(0.3).abs() < 1e-10);
    }

    #[test]
    #[should_panic]
    fn zero_duration_panics() {
        let _ = CubicPoly::from_boundary_conditions(0.0, 0.0, 1.0, 0.0, 0.0);
    }

    #[test]
    fn least_squares_recovers_exact_cubic() {
        let truth = CubicPoly::new(0.7, -0.2, 1.3, -0.5);
        let samples: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let t = i as f64 * 0.033;
                (t, truth.eval(t))
            })
            .collect();
        let fit = CubicPoly::fit_least_squares(&samples);
        for i in 0..10 {
            let t = i as f64 * 0.033;
            assert!((fit.eval(t) - truth.eval(t)).abs() < 1e-6);
        }
    }

    #[test]
    fn iterator_fit_is_bit_identical_to_slice_fit() {
        let truth = CubicPoly::new(0.3, -0.6, 0.9, 0.1);
        for n in [0usize, 1, 2, 5, 9] {
            let samples: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let t = i as f64 * 0.04;
                    (t, truth.eval(t) + (i as f64).cos() * 0.01)
                })
                .collect();
            let from_slice = CubicPoly::fit_least_squares(&samples);
            let from_iter = CubicPoly::fit_least_squares_iter(samples.iter().copied());
            assert_eq!(from_slice, from_iter, "n = {n}");
        }
    }

    #[test]
    fn least_squares_degenerate_inputs() {
        assert_eq!(CubicPoly::fit_least_squares(&[]), CubicPoly::zero());
        let single = CubicPoly::fit_least_squares(&[(0.5, 2.0)]);
        assert!((single.eval(0.123) - 2.0).abs() < 1e-12);
        // Two samples: fit should at least pass near both.
        let two = CubicPoly::fit_least_squares(&[(0.0, 1.0), (1.0, 3.0)]);
        assert!((two.eval(0.0) - 1.0).abs() < 1e-3);
        assert!((two.eval(1.0) - 3.0).abs() < 1e-3);
    }

    proptest! {
        #[test]
        fn boundary_fit_always_interpolates(
            p0 in -5.0..5.0, v0 in -2.0..2.0, p1 in -5.0..5.0, v1 in -2.0..2.0,
            dur in 0.05..2.0) {
            let p = CubicPoly::from_boundary_conditions(p0, v0, p1, v1, dur);
            prop_assert!((p.eval(0.0) - p0).abs() < 1e-9);
            prop_assert!((p.eval_derivative(0.0) - v0).abs() < 1e-9);
            prop_assert!((p.eval(dur) - p1).abs() < 1e-7);
            prop_assert!((p.eval_derivative(dur) - v1).abs() < 1e-7);
        }

        #[test]
        fn least_squares_error_never_exceeds_range(
            a in -1.0..1.0, b in -1.0..1.0, c in -1.0..1.0, d in -1.0..1.0) {
            let truth = CubicPoly::new(a, b, c, d);
            let samples: Vec<(f64, f64)> = (0..8)
                .map(|i| { let t = i as f64 * 0.05; (t, truth.eval(t)) })
                .collect();
            let fit = CubicPoly::fit_least_squares(&samples);
            for &(t, y) in &samples {
                prop_assert!((fit.eval(t) - y).abs() < 1e-4);
            }
        }
    }
}
