//! Small dynamically-sized matrices and vectors.
//!
//! These back the joint-space mass matrix (7×7 for the Franka Panda), the
//! 6×n geometric Jacobian and the 6×6 task-space mass matrix used by the
//! TS-CTC controller. The sizes involved are tiny, so a simple row-major
//! `Vec<f64>` representation with straightforward O(n³) factorisations is both
//! adequate and easy to audit.

use crate::dense;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Error returned when an LU factorisation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// The matrix is singular (a pivot was numerically zero).
    Singular,
    /// The matrix is not square.
    NotSquare,
    /// A dimension mismatch between the matrix and the right-hand side.
    DimensionMismatch,
}

impl fmt::Display for LuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LuError::Singular => write!(f, "matrix is singular"),
            LuError::NotSquare => write!(f, "matrix is not square"),
            LuError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LuError {}

/// Error returned when a Cholesky factorisation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyError {
    /// The matrix is not positive definite.
    NotPositiveDefinite,
    /// The matrix is not square.
    NotSquare,
    /// A dimension mismatch between the matrix and the right-hand side.
    DimensionMismatch,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CholeskyError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            CholeskyError::NotSquare => write!(f, "matrix is not square"),
            CholeskyError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for CholeskyError {}

/// A dynamically-sized column vector of `f64`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DVec {
    data: Vec<f64>,
}

impl DVec {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        DVec { data: vec![0.0; n] }
    }

    /// Creates a vector from a `Vec<f64>`.
    pub fn from_vec(data: Vec<f64>) -> Self {
        DVec { data }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(s: &[f64]) -> Self {
        DVec { data: s.to_vec() }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Dot product.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn dot(&self, other: &DVec) -> f64 {
        assert_eq!(self.len(), other.len(), "DVec::dot length mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns a new vector scaled by `s`.
    pub fn scale(&self, s: f64) -> DVec {
        DVec::from_vec(self.data.iter().map(|x| x * s).collect())
    }

    /// Scales the vector in place — the allocation-free variant of
    /// [`DVec::scale`].
    pub fn scale_mut(&mut self, s: f64) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// In-place `self += a · x` (BLAS `axpy`) — replaces the
    /// `scale`-then-`Add` pattern without allocating two temporaries.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn axpy(&mut self, a: f64, x: &DVec) {
        assert_eq!(self.len(), x.len(), "DVec::axpy length mismatch");
        for (s, xi) in self.data.iter_mut().zip(x.data.iter()) {
            *s += a * xi;
        }
    }

    /// Maximum absolute element, or 0 for an empty vector.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }
}

impl Index<usize> for DVec {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for DVec {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &DVec {
    type Output = DVec;
    fn add(self, rhs: &DVec) -> DVec {
        assert_eq!(self.len(), rhs.len(), "DVec addition length mismatch");
        DVec::from_vec(self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a + b).collect())
    }
}

impl Sub for &DVec {
    type Output = DVec;
    fn sub(self, rhs: &DVec) -> DVec {
        assert_eq!(self.len(), rhs.len(), "DVec subtraction length mismatch");
        DVec::from_vec(self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a - b).collect())
    }
}

impl std::ops::AddAssign<&DVec> for DVec {
    fn add_assign(&mut self, rhs: &DVec) {
        assert_eq!(self.len(), rhs.len(), "DVec addition length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl std::ops::SubAssign<&DVec> for DVec {
    fn sub_assign(&mut self, rhs: &DVec) {
        assert_eq!(self.len(), rhs.len(), "DVec subtraction length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl From<Vec<f64>> for DVec {
    fn from(v: Vec<f64>) -> Self {
        DVec::from_vec(v)
    }
}

impl FromIterator<f64> for DVec {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        DVec::from_vec(iter.into_iter().collect())
    }
}

/// A dynamically-sized row-major matrix of `f64`.
///
/// ```
/// use corki_math::{DMat, DVec};
/// let m = DMat::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
/// let b = DVec::from_slice(&[1.0, 2.0]);
/// let x = m.solve_cholesky(&b).unwrap();
/// let back = m.mul_vec(&x);
/// assert!((back[0] - 1.0).abs() < 1e-12 && (back[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Creates a zero matrix with the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DMat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        assert!(rows.iter().all(|r| r.len() == ncols), "all rows must have the same length");
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        DMat { rows: nrows, cols: ncols, data }
    }

    /// Creates a `rows×cols` matrix from the first `rows·cols` entries of a
    /// row-major slice (the layout of the [`crate::dense`] kernels).
    ///
    /// # Panics
    ///
    /// Panics if `data` holds fewer than `rows·cols` entries.
    pub fn from_row_slice(rows: usize, cols: usize, data: &[f64]) -> Self {
        DMat { rows, cols, data: data[..rows * cols].to_vec() }
    }

    /// The entries in row-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &DVec) -> DVec {
        assert_eq!(v.len(), self.cols, "mul_vec dimension mismatch");
        let mut out = DVec::zeros(self.rows);
        dense::mul_vec(&self.data, self.rows, self.cols, &v.data, &mut out.data);
        out
    }

    /// Matrix-matrix product.
    ///
    /// # Panics
    ///
    /// Panics when `self.cols() != rhs.rows()`.
    pub fn mul_mat(&self, rhs: &DMat) -> DMat {
        assert_eq!(self.cols, rhs.rows, "mul_mat dimension mismatch");
        let mut out = DMat::zeros(self.rows, rhs.cols);
        dense::mul_mat(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
        out
    }

    /// Symmetric check within tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Maximum absolute element-wise difference with `other`.
    ///
    /// # Panics
    ///
    /// Panics when the dimensions differ.
    pub fn max_abs_diff(&self, other: &DMat) -> f64 {
        assert_eq!(self.rows, other.rows, "max_abs_diff dimension mismatch");
        assert_eq!(self.cols, other.cols, "max_abs_diff dimension mismatch");
        self.data.iter().zip(other.data.iter()).fold(0.0_f64, |acc, (a, b)| acc.max((a - b).abs()))
    }

    /// Solves `self * x = b` using LU decomposition with partial pivoting.
    ///
    /// Callers that solve against the same matrix repeatedly should factor
    /// once with [`DMat::lu_factor`] and reuse [`LuFactors::solve_into`].
    ///
    /// # Errors
    ///
    /// Returns [`LuError::NotSquare`], [`LuError::DimensionMismatch`] or
    /// [`LuError::Singular`] when applicable.
    pub fn solve_lu(&self, b: &DVec) -> Result<DVec, LuError> {
        if !self.is_square() {
            return Err(LuError::NotSquare);
        }
        if b.len() != self.rows {
            return Err(LuError::DimensionMismatch);
        }
        let factors = self.lu_factor()?;
        let mut x = DVec::default();
        factors.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// LU-factorises the matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::NotSquare`] or [`LuError::Singular`].
    pub fn lu_factor(&self) -> Result<LuFactors, LuError> {
        let mut factors = LuFactors::default();
        self.lu_factor_into(&mut factors)?;
        Ok(factors)
    }

    /// LU-factorises the matrix into an existing [`LuFactors`], reusing its
    /// storage — the in-place variant behind [`DMat::lu_factor`] for callers
    /// that refactor every control cycle.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::NotSquare`] or [`LuError::Singular`].
    pub fn lu_factor_into(&self, factors: &mut LuFactors) -> Result<(), LuError> {
        if !self.is_square() {
            return Err(LuError::NotSquare);
        }
        let n = self.rows;
        factors.n = n;
        factors.lu.clear();
        factors.lu.extend_from_slice(&self.data);
        factors.perm.clear();
        factors.perm.resize(n, 0);
        dense::lu_factor(&mut factors.lu, &mut factors.perm, n)
    }

    /// Inverse via LU decomposition (one factorisation shared by all
    /// columns).
    ///
    /// # Errors
    ///
    /// Returns an [`LuError`] when the matrix is singular or not square.
    pub fn inverse(&self) -> Result<DMat, LuError> {
        if !self.is_square() {
            return Err(LuError::NotSquare);
        }
        let n = self.rows;
        let factors = self.lu_factor()?;
        let mut out = DMat::zeros(n, n);
        dense::lu_inverse(&factors.lu, &factors.perm, n, &mut out.data);
        Ok(out)
    }

    /// Solves `self * x = b` via Cholesky decomposition, requiring the matrix
    /// to be symmetric positive definite (e.g. a mass matrix).
    ///
    /// Callers that solve against the same matrix repeatedly should factor
    /// once with [`DMat::cholesky_factor`] (or
    /// [`DMat::cholesky_factor_into`]) and reuse
    /// [`DMat::cholesky_solve_with_factor`].
    ///
    /// # Errors
    ///
    /// Returns a [`CholeskyError`] if the matrix is not square, the dimensions
    /// mismatch, or it is not positive definite.
    pub fn solve_cholesky(&self, b: &DVec) -> Result<DVec, CholeskyError> {
        let l = self.cholesky_factor()?;
        if b.len() != self.rows {
            return Err(CholeskyError::DimensionMismatch);
        }
        let mut x = DVec::default();
        l.cholesky_solve_with_factor(b, &mut x)?;
        Ok(x)
    }

    /// Solves `L Lᵀ x = b` where `self` is a lower-triangular Cholesky factor
    /// previously produced by [`DMat::cholesky_factor`], writing the solution
    /// into `x` (resized in place, no allocation at steady state).
    ///
    /// # Errors
    ///
    /// Returns a [`CholeskyError`] if the factor is not square or the
    /// dimensions mismatch.
    pub fn cholesky_solve_with_factor(&self, b: &DVec, x: &mut DVec) -> Result<(), CholeskyError> {
        if !self.is_square() {
            return Err(CholeskyError::NotSquare);
        }
        if b.len() != self.rows {
            return Err(CholeskyError::DimensionMismatch);
        }
        let n = self.rows;
        x.data.clear();
        x.data.resize(n, 0.0);
        dense::cholesky_solve(&self.data, n, &b.data, &mut x.data);
        Ok(())
    }

    /// Lower-triangular Cholesky factor `L` with `self = L Lᵀ`.
    ///
    /// # Errors
    ///
    /// Returns a [`CholeskyError`] if the matrix is not square or not
    /// positive definite.
    pub fn cholesky_factor(&self) -> Result<DMat, CholeskyError> {
        let mut l = DMat::default();
        self.cholesky_factor_into(&mut l)?;
        Ok(l)
    }

    /// Cholesky-factorises into an existing matrix, reusing its storage —
    /// the in-place variant behind [`DMat::cholesky_factor`] for callers that
    /// refactor every control cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`CholeskyError`] if the matrix is not square or not
    /// positive definite.
    pub fn cholesky_factor_into(&self, l: &mut DMat) -> Result<(), CholeskyError> {
        if !self.is_square() {
            return Err(CholeskyError::NotSquare);
        }
        let n = self.rows;
        l.rows = n;
        l.cols = n;
        l.data.clear();
        l.data.resize(n * n, 0.0);
        dense::cholesky_factor(&self.data, n, &mut l.data)
    }
}

/// Packed LU factors (with the partial-pivoting row permutation) of a square
/// [`DMat`], produced by [`DMat::lu_factor`]. One factorisation serves any
/// number of right-hand sides via [`LuFactors::solve_into`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LuFactors {
    lu: Vec<f64>,
    perm: Vec<usize>,
    n: usize,
}

impl LuFactors {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the stored factors, writing the solution into
    /// `x` (resized in place, no allocation at steady state).
    ///
    /// # Errors
    ///
    /// Returns [`LuError::DimensionMismatch`] when `b` has the wrong length.
    pub fn solve_into(&self, b: &DVec, x: &mut DVec) -> Result<(), LuError> {
        let n = self.n;
        if b.len() != n {
            return Err(LuError::DimensionMismatch);
        }
        x.data.clear();
        x.data.resize(n, 0.0);
        dense::lu_solve(&self.lu, &self.perm, n, &b.data, &mut x.data);
        Ok(())
    }
}

impl Index<(usize, usize)> for DMat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "DMat index out of range");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "DMat index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &DMat {
    type Output = DMat;
    fn add(self, rhs: &DMat) -> DMat {
        assert_eq!(self.rows, rhs.rows, "DMat addition dimension mismatch");
        assert_eq!(self.cols, rhs.cols, "DMat addition dimension mismatch");
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o += r;
        }
        out
    }
}

impl Sub for &DMat {
    type Output = DMat;
    fn sub(self, rhs: &DMat) -> DMat {
        assert_eq!(self.rows, rhs.rows, "DMat subtraction dimension mismatch");
        assert_eq!(self.cols, rhs.cols, "DMat subtraction dimension mismatch");
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o -= r;
        }
        out
    }
}

impl Mul<&DMat> for &DMat {
    type Output = DMat;
    fn mul(self, rhs: &DMat) -> DMat {
        self.mul_mat(rhs)
    }
}

impl fmt::Display for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                write!(f, " {:9.4}", self[(i, j)])?;
            }
            writeln!(f, " ]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_solve() {
        let m = DMat::identity(4);
        let b = DVec::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let x = m.solve_lu(&b).unwrap();
        assert_eq!(x.as_slice(), b.as_slice());
    }

    #[test]
    fn lu_solve_known_system() {
        let m =
            DMat::from_rows(&[vec![2.0, 1.0, -1.0], vec![-3.0, -1.0, 2.0], vec![-2.0, 1.0, 2.0]]);
        let b = DVec::from_slice(&[8.0, -11.0, -3.0]);
        let x = m.solve_lu(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] - -1.0).abs() < 1e-10);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let m = DMat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let b = DVec::from_slice(&[1.0, 2.0]);
        assert_eq!(m.solve_lu(&b), Err(LuError::Singular));
    }

    #[test]
    fn non_square_is_rejected() {
        let m = DMat::zeros(2, 3);
        let b = DVec::zeros(2);
        assert_eq!(m.solve_lu(&b), Err(LuError::NotSquare));
        assert_eq!(m.solve_cholesky(&b), Err(CholeskyError::NotSquare));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let m = DMat::identity(3);
        let b = DVec::zeros(2);
        assert_eq!(m.solve_lu(&b), Err(LuError::DimensionMismatch));
    }

    #[test]
    fn cholesky_solve_spd() {
        let m = DMat::from_rows(&[
            vec![4.0, 12.0, -16.0],
            vec![12.0, 37.0, -43.0],
            vec![-16.0, -43.0, 98.0],
        ]);
        let b = DVec::from_slice(&[1.0, 2.0, 3.0]);
        let x = m.solve_cholesky(&b).unwrap();
        let back = m.mul_vec(&x);
        for i in 0..3 {
            assert!((back[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = DMat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert_eq!(m.cholesky_factor().unwrap_err(), CholeskyError::NotPositiveDefinite);
    }

    #[test]
    fn inverse_roundtrip() {
        let m = DMat::from_rows(&[vec![3.0, 0.5, 1.0], vec![0.5, 2.0, 0.0], vec![1.0, 0.0, 4.0]]);
        let inv = m.inverse().unwrap();
        let eye = m.mul_mat(&inv);
        assert!(eye.max_abs_diff(&DMat::identity(3)) < 1e-10);
    }

    #[test]
    fn transpose_involution() {
        let m = DMat::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_against_known_result() {
        let a = DMat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DMat::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.mul_mat(&b);
        assert_eq!(c, DMat::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn dvec_operations() {
        let a = DVec::from_slice(&[1.0, 2.0, 2.0]);
        let b = DVec::from_slice(&[3.0, 0.0, 4.0]);
        assert_eq!(a.dot(&b), 11.0);
        assert_eq!(a.norm(), 3.0);
        assert_eq!((&a + &b).as_slice(), &[4.0, 2.0, 6.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, 2.0, -2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 4.0]);
        assert_eq!(b.max_abs(), 4.0);
    }

    #[test]
    fn in_place_dvec_ops_match_allocating_ones() {
        let a = DVec::from_slice(&[1.0, 2.0, 2.0]);
        let b = DVec::from_slice(&[3.0, 0.0, 4.0]);
        let mut c = a.clone();
        c.scale_mut(2.0);
        assert_eq!(c, a.scale(2.0));
        let mut d = a.clone();
        d.axpy(0.5, &b);
        assert_eq!(d, &a + &b.scale(0.5));
        let mut e = a.clone();
        e += &b;
        assert_eq!(e, &a + &b);
        e -= &b;
        assert_eq!(e.as_slice(), a.as_slice());
    }

    #[test]
    fn factored_solves_are_bit_identical_to_direct_solves() {
        let m = DMat::from_rows(&[
            vec![4.0, 12.0, -16.0],
            vec![12.0, 37.0, -43.0],
            vec![-16.0, -43.0, 98.0],
        ]);
        let bs = [[1.0, 2.0, 3.0], [-0.5, 4.0, 0.25], [10.0, -3.0, 7.0]];
        let l = m.cholesky_factor().unwrap();
        let lu = m.lu_factor().unwrap();
        let mut x = DVec::default();
        for b in bs {
            let rhs = DVec::from_slice(&b);
            l.cholesky_solve_with_factor(&rhs, &mut x).unwrap();
            assert_eq!(x, m.solve_cholesky(&rhs).unwrap());
            lu.solve_into(&rhs, &mut x).unwrap();
            assert_eq!(x, m.solve_lu(&rhs).unwrap());
        }
        assert_eq!(lu.dim(), 3);
        // Reusing the factor buffers must not change the results.
        let mut l2 = DMat::default();
        m.cholesky_factor_into(&mut l2).unwrap();
        assert_eq!(l2, l);
        let mut lu2 = LuFactors::default();
        m.lu_factor_into(&mut lu2).unwrap();
        assert_eq!(lu2, lu);
    }

    #[test]
    fn factored_solve_rejects_wrong_lengths() {
        let m = DMat::identity(3);
        let l = m.cholesky_factor().unwrap();
        let lu = m.lu_factor().unwrap();
        let mut x = DVec::default();
        let short = DVec::zeros(2);
        assert_eq!(
            l.cholesky_solve_with_factor(&short, &mut x),
            Err(CholeskyError::DimensionMismatch)
        );
        assert_eq!(lu.solve_into(&short, &mut x), Err(LuError::DimensionMismatch));
    }

    fn arb_spd(n: usize) -> impl Strategy<Value = DMat> {
        proptest::collection::vec(-1.0..1.0f64, n * n).prop_map(move |vals| {
            // A = B Bᵀ + n·I is symmetric positive definite.
            let b = DMat::from_fn(n, n, |i, j| vals[i * n + j]);
            let mut a = b.mul_mat(&b.transpose());
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            a
        })
    }

    proptest! {
        #[test]
        fn lu_and_cholesky_agree_on_spd(m in arb_spd(5),
                                        b in proptest::collection::vec(-10.0..10.0f64, 5)) {
            let rhs = DVec::from_vec(b);
            let x1 = m.solve_lu(&rhs).unwrap();
            let x2 = m.solve_cholesky(&rhs).unwrap();
            for i in 0..5 {
                prop_assert!((x1[i] - x2[i]).abs() < 1e-6);
            }
        }

        #[test]
        fn solve_then_multiply_recovers_rhs(m in arb_spd(4),
                                            b in proptest::collection::vec(-5.0..5.0f64, 4)) {
            let rhs = DVec::from_vec(b);
            let x = m.solve_lu(&rhs).unwrap();
            let back = m.mul_vec(&x);
            for i in 0..4 {
                prop_assert!((back[i] - rhs[i]).abs() < 1e-7);
            }
        }

        #[test]
        fn cholesky_factor_reconstructs(m in arb_spd(4)) {
            let l = m.cholesky_factor().unwrap();
            let reconstructed = l.mul_mat(&l.transpose());
            prop_assert!(reconstructed.max_abs_diff(&m) < 1e-9);
        }
    }
}
