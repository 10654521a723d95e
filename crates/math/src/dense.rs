//! Row-major dense kernels over plain slices: the matrix products and the
//! Cholesky and LU factorisations, usable on stack buffers by callers that
//! must not allocate (the rigid-body dynamics of `corki-robot` run them on
//! every physics substep and every control cycle).
//!
//! An `r×c` matrix is the first `r·c` entries of its slice, row `i` at
//! `[i·c, (i+1)·c)`.
//!
//! # Panics
//!
//! Every kernel panics if a slice is shorter than the dimensions it is given.

use std::fmt;

/// Error returned when an LU factorisation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// The matrix is singular (a pivot was numerically zero).
    Singular,
}

impl fmt::Display for LuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular")
    }
}

impl std::error::Error for LuError {}

/// Error returned when a Cholesky factorisation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyError {
    /// The matrix is not positive definite.
    NotPositiveDefinite,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is not positive definite")
    }
}

impl std::error::Error for CholeskyError {}

/// `out = A x` for an `rows×cols` matrix `A`.
pub fn mul_vec(a: &[f64], rows: usize, cols: usize, x: &[f64], out: &mut [f64]) {
    let a = &a[..rows * cols];
    let x = &x[..cols];
    for (i, o) in out[..rows].iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, xj) in x.iter().enumerate() {
            acc += a[i * cols + j] * xj;
        }
        *o = acc;
    }
}

/// `out = A B` for an `rows×inner` matrix `A` and an `inner×cols` matrix
/// `B`. Zero entries of `A` are skipped.
pub fn mul_mat(a: &[f64], rows: usize, inner: usize, b: &[f64], cols: usize, out: &mut [f64]) {
    let out = &mut out[..rows * cols];
    let b = &b[..inner * cols];
    out.fill(0.0);
    for i in 0..rows {
        for k in 0..inner {
            let aik = a[i * inner + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..cols {
                out[i * cols + j] += aik * b[k * cols + j];
            }
        }
    }
}

/// Writes the lower-triangular Cholesky factor `L` of the symmetric
/// positive-definite `n×n` matrix `a` (`a = L Lᵀ`) into `l`, with zeros above
/// the diagonal.
///
/// # Errors
///
/// Returns [`CholeskyError::NotPositiveDefinite`] when a pivot is not
/// positive.
pub fn cholesky_factor(a: &[f64], n: usize, l: &mut [f64]) -> Result<(), CholeskyError> {
    let a = &a[..n * n];
    let l = &mut l[..n * n];
    l.fill(0.0);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(CholeskyError::NotPositiveDefinite);
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Ok(())
}

/// Solves `L Lᵀ x = b` for a factor `l` produced by [`cholesky_factor`],
/// writing the solution into `x[..n]`.
pub fn cholesky_solve(l: &[f64], n: usize, b: &[f64], x: &mut [f64]) {
    let l = &l[..n * n];
    let b = &b[..n];
    let x = &mut x[..n];
    // Forward substitution L y = b (y stored in x).
    for i in 0..n {
        let mut acc = b[i];
        for j in 0..i {
            acc -= l[i * n + j] * x[j];
        }
        x[i] = acc / l[i * n + i];
    }
    // Back substitution Lᵀ x = y, in place: x[i] only reads y[i] and the
    // already-final x[j] with j > i.
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= l[j * n + i] * x[j];
        }
        x[i] = acc / l[i * n + i];
    }
}

/// LU-factorises the `n×n` matrix held in `lu` in place, with partial
/// pivoting: on return `lu` holds the packed factors (unit-diagonal `L` below
/// the diagonal) by original row, and `perm[..n]` the pivot order.
///
/// # Errors
///
/// Returns [`LuError::Singular`] when a pivot is numerically zero.
pub fn lu_factor(lu: &mut [f64], perm: &mut [usize], n: usize) -> Result<(), LuError> {
    let a = &mut lu[..n * n];
    let perm = &mut perm[..n];
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    for k in 0..n {
        // Partial pivoting.
        let mut pivot_row = k;
        let mut pivot_val = a[perm[k] * n + k].abs();
        for (idx, &p) in perm.iter().enumerate().skip(k + 1) {
            let val = a[p * n + k].abs();
            if val > pivot_val {
                pivot_val = val;
                pivot_row = idx;
            }
        }
        if pivot_val < 1e-13 {
            return Err(LuError::Singular);
        }
        perm.swap(k, pivot_row);
        let pk = perm[k];
        for &pi in perm.iter().skip(k + 1) {
            let factor = a[pi * n + k] / a[pk * n + k];
            a[pi * n + k] = factor;
            for j in (k + 1)..n {
                a[pi * n + j] -= factor * a[pk * n + j];
            }
        }
    }
    Ok(())
}

/// Solves `A x = b` from the factors of [`lu_factor`], writing the solution
/// into `x[..n]`.
pub fn lu_solve(lu: &[f64], perm: &[usize], n: usize, b: &[f64], x: &mut [f64]) {
    lu_solve_strided(lu, perm, n, |i| b[i], x, 1);
}

/// Writes `A⁻¹` into `out` (`n×n`), solving one unit right-hand side per
/// column with the factors of [`lu_factor`].
pub fn lu_inverse(lu: &[f64], perm: &[usize], n: usize, out: &mut [f64]) {
    for j in 0..n {
        let unit = |i: usize| if i == j { 1.0 } else { 0.0 };
        lu_solve_strided(lu, perm, n, unit, &mut out[j..], n);
    }
}

/// The substitutions behind [`lu_solve`] and [`lu_inverse`]: reads `b[i]`
/// through `b` and stores `x[i]` at `x[i·stride]`, so a solution can land
/// directly in a column of a row-major matrix.
fn lu_solve_strided(
    lu: &[f64],
    perm: &[usize],
    n: usize,
    b: impl Fn(usize) -> f64,
    x: &mut [f64],
    stride: usize,
) {
    let lu = &lu[..n * n];
    // Forward substitution (L has unit diagonal), applying the permutation;
    // the intermediate y lives in x.
    for i in 0..n {
        let pi = perm[i];
        let mut acc = b(pi);
        for j in 0..i {
            acc -= lu[pi * n + j] * x[j * stride];
        }
        x[i * stride] = acc;
    }
    // Back substitution with U, in place over the same buffer.
    for i in (0..n).rev() {
        let pi = perm[i];
        let mut acc = x[i * stride];
        for j in (i + 1)..n {
            acc -= lu[pi * n + j] * x[j * stride];
        }
        x[i * stride] = acc / lu[pi * n + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Solves `A x = b` by LU factorisation of a copy of `a`.
    fn solve_lu(a: &[f64], n: usize, b: &[f64]) -> Result<Vec<f64>, LuError> {
        let mut lu = a.to_vec();
        let mut perm = vec![0; n];
        lu_factor(&mut lu, &mut perm, n)?;
        let mut x = vec![0.0; n];
        lu_solve(&lu, &perm, n, b, &mut x);
        Ok(x)
    }

    /// Solves `A x = b` by Cholesky factorisation of `a`.
    fn solve_cholesky(a: &[f64], n: usize, b: &[f64]) -> Result<Vec<f64>, CholeskyError> {
        let mut l = vec![0.0; n * n];
        cholesky_factor(a, n, &mut l)?;
        let mut x = vec![0.0; n];
        cholesky_solve(&l, n, b, &mut x);
        Ok(x)
    }

    fn transpose(a: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        (0..rows * cols).map(|idx| a[(idx % rows) * cols + idx / rows]).collect()
    }

    fn identity(n: usize) -> Vec<f64> {
        (0..n * n).map(|idx| if idx / n == idx % n { 1.0 } else { 0.0 }).collect()
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).fold(0.0_f64, |acc, (x, y)| acc.max((x - y).abs()))
    }

    #[test]
    fn identity_solve() {
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(solve_lu(&identity(4), 4, &b).unwrap(), b);
    }

    #[test]
    fn lu_solve_known_system() {
        let m = [2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0];
        let x = solve_lu(&m, 3, &[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] - -1.0).abs() < 1e-10);
    }

    #[test]
    fn singular_matrix_is_detected() {
        assert_eq!(solve_lu(&[1.0, 2.0, 2.0, 4.0], 2, &[1.0, 2.0]), Err(LuError::Singular));
    }

    #[test]
    fn cholesky_solve_spd() {
        let m = [4.0, 12.0, -16.0, 12.0, 37.0, -43.0, -16.0, -43.0, 98.0];
        let b = [1.0, 2.0, 3.0];
        let x = solve_cholesky(&m, 3, &b).unwrap();
        let mut back = [0.0; 3];
        mul_vec(&m, 3, 3, &x, &mut back);
        for i in 0..3 {
            assert!((back[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut l = [0.0; 4];
        assert_eq!(
            cholesky_factor(&[1.0, 2.0, 2.0, 1.0], 2, &mut l),
            Err(CholeskyError::NotPositiveDefinite)
        );
    }

    #[test]
    fn inverse_roundtrip() {
        let m = [3.0, 0.5, 1.0, 0.5, 2.0, 0.0, 1.0, 0.0, 4.0];
        let mut lu = m;
        let mut perm = [0; 3];
        lu_factor(&mut lu, &mut perm, 3).unwrap();
        let mut inv = [0.0; 9];
        lu_inverse(&lu, &perm, 3, &mut inv);
        let mut eye = [0.0; 9];
        mul_mat(&m, 3, 3, &inv, 3, &mut eye);
        assert!(max_abs_diff(&eye, &identity(3)) < 1e-10);
    }

    #[test]
    fn matmul_against_known_result() {
        let mut c = [0.0; 4];
        mul_mat(&[1.0, 2.0, 3.0, 4.0], 2, 2, &[5.0, 6.0, 7.0, 8.0], 2, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    fn arb_spd(n: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-1.0..1.0f64, n * n).prop_map(move |b| {
            // A = B Bᵀ + n·I is symmetric positive definite.
            let mut a = vec![0.0; n * n];
            mul_mat(&b, n, n, &transpose(&b, n, n), n, &mut a);
            for i in 0..n {
                a[i * n + i] += n as f64;
            }
            a
        })
    }

    proptest! {
        #[test]
        fn lu_and_cholesky_agree_on_spd(m in arb_spd(5),
                                        b in proptest::collection::vec(-10.0..10.0f64, 5)) {
            let x1 = solve_lu(&m, 5, &b).unwrap();
            let x2 = solve_cholesky(&m, 5, &b).unwrap();
            for i in 0..5 {
                prop_assert!((x1[i] - x2[i]).abs() < 1e-6);
            }
        }

        #[test]
        fn solve_then_multiply_recovers_rhs(m in arb_spd(4),
                                            b in proptest::collection::vec(-5.0..5.0f64, 4)) {
            let x = solve_lu(&m, 4, &b).unwrap();
            let mut back = [0.0; 4];
            mul_vec(&m, 4, 4, &x, &mut back);
            for i in 0..4 {
                prop_assert!((back[i] - b[i]).abs() < 1e-7);
            }
        }

        #[test]
        fn cholesky_factor_reconstructs(m in arb_spd(4)) {
            let mut l = [0.0; 16];
            cholesky_factor(&m, 4, &mut l).unwrap();
            let mut reconstructed = [0.0; 16];
            mul_mat(&l, 4, 4, &transpose(&l, 4, 4), 4, &mut reconstructed);
            prop_assert!(max_abs_diff(&reconstructed, &m) < 1e-9);
        }
    }
}
