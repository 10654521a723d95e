//! Row-major dense kernels over plain slices: the one implementation of the
//! matrix products and of the Cholesky and LU factorisations behind
//! [`DMat`](crate::DMat), usable on stack buffers by callers that must not
//! allocate (the rigid-body dynamics of `corki-robot` run them on every
//! physics substep).
//!
//! An `r×c` matrix is the first `r·c` entries of its slice, row `i` at
//! `[i·c, (i+1)·c)`. Each `DMat` method is a thin wrapper over the kernel
//! here, so results are bit-identical whichever storage holds the numbers.
//!
//! # Panics
//!
//! Every kernel panics if a slice is shorter than the dimensions it is given.

use crate::{CholeskyError, LuError};

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
