//! 3×3 matrices.

use crate::Vec3;
use serde::{Deserialize, Serialize};
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A 3×3 matrix of `f64`, stored row-major.
///
/// Primarily used for rotation matrices and rigid-body inertia tensors.
///
/// ```
/// use corki_math::{Mat3, Vec3};
/// let r = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
/// let v = r * Vec3::X;
/// assert!((v - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Row-major entries `m[row][col]`.
    pub m: [[f64; 3]; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::identity()
    }
}

impl Mat3 {
    /// The zero matrix.
    pub const fn zero() -> Self {
        Mat3 { m: [[0.0; 3]; 3] }
    }

    /// The identity matrix.
    pub const fn identity() -> Self {
        Mat3 { m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] }
    }

    /// Builds a matrix from rows.
    pub const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Self {
        Mat3 { m: [r0, r1, r2] }
    }

    /// Builds a diagonal matrix.
    pub fn diagonal(d: Vec3) -> Self {
        Mat3 { m: [[d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z]] }
    }

    /// Rotation about the X axis by `theta` radians.
    pub fn rotation_x(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c])
    }

    /// Rotation about the Y axis by `theta` radians.
    pub fn rotation_y(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c])
    }

    /// Rotation about the Z axis by `theta` radians.
    pub fn rotation_z(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0])
    }

    /// Rotation from intrinsic roll-pitch-yaw (XYZ) Euler angles, matching the
    /// `(α, β, γ)` end-effector orientation convention used by the paper.
    pub fn from_euler_xyz(roll: f64, pitch: f64, yaw: f64) -> Self {
        Mat3::rotation_z(yaw) * Mat3::rotation_y(pitch) * Mat3::rotation_x(roll)
    }

    /// Extracts XYZ (roll, pitch, yaw) Euler angles from a rotation matrix.
    ///
    /// The inverse of [`Mat3::from_euler_xyz`] away from the pitch singularity.
    pub fn to_euler_xyz(&self) -> (f64, f64, f64) {
        // R = Rz(yaw) Ry(pitch) Rx(roll)
        let pitch = (-self.m[2][0]).asin();
        if pitch.cos().abs() > 1e-9 {
            let roll = self.m[2][1].atan2(self.m[2][2]);
            let yaw = self.m[1][0].atan2(self.m[0][0]);
            (roll, pitch, yaw)
        } else {
            // Gimbal lock: set roll = 0 and fold everything into yaw.
            let roll = 0.0;
            let yaw = (-self.m[0][1]).atan2(self.m[1][1]);
            (roll, pitch, yaw)
        }
    }

    /// The skew-symmetric (cross-product) matrix of `v`, i.e. `skew(v) * w == v.cross(w)`.
    pub fn skew(v: Vec3) -> Self {
        Mat3::from_rows([0.0, -v.z, v.y], [v.z, 0.0, -v.x], [-v.y, v.x, 0.0])
    }

    /// The outer product `a * bᵀ`.
    pub fn outer(a: Vec3, b: Vec3) -> Self {
        Mat3::from_rows(
            [a.x * b.x, a.x * b.y, a.x * b.z],
            [a.y * b.x, a.y * b.y, a.y * b.z],
            [a.z * b.x, a.z * b.y, a.z * b.z],
        )
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat3 {
        let m = &self.m;
        Mat3::from_rows(
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        )
    }

    /// Matrix determinant.
    pub fn determinant(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix trace.
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Returns row `i` as a vector.
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[i][0], self.m[i][1], self.m[i][2])
    }

    /// Returns column `j` as a vector.
    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.m[0][j], self.m[1][j], self.m[2][j])
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.m.iter().flat_map(|r| r.iter()).fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Returns `true` when this matrix is a valid rotation (orthonormal with
    /// determinant +1) within tolerance `tol`.
    pub fn is_rotation(&self, tol: f64) -> bool {
        let should_be_identity = *self * self.transpose();
        let mut err: f64 = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                err = err.max((should_be_identity.m[i][j] - expected).abs());
            }
        }
        err < tol && (self.determinant() - 1.0).abs() < tol
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = self.m[i][j] + rhs.m[i][j];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = self.m[i][j] - rhs.m[i][j];
            }
        }
        out
    }
}

impl Neg for Mat3 {
    type Output = Mat3;
    fn neg(self) -> Mat3 {
        self * -1.0
    }
}

impl Mul<f64> for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: f64) -> Mat3 {
        let mut out = self;
        for row in out.m.iter_mut() {
            for x in row.iter_mut() {
                *x *= rhs;
            }
        }
        out
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul<Mat3> for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = (0..3).map(|k| self.m[i][k] * rhs.m[k][j]).sum();
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Mat3 {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.m[i][j]
    }
}

impl IndexMut<(usize, usize)> for Mat3 {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.m[i][j]
    }
}

impl std::fmt::Display for Mat3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..3 {
            writeln!(f, "[{:9.4} {:9.4} {:9.4}]", self.m[i][0], self.m[i][1], self.m[i][2])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_is_neutral() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]);
        assert_eq!(m * Mat3::identity(), m);
        assert_eq!(Mat3::identity() * m, m);
    }

    #[test]
    fn rotations_are_rotations() {
        for theta in [-1.0, 0.0, 0.7, FRAC_PI_2, PI] {
            assert!(Mat3::rotation_x(theta).is_rotation(1e-12));
            assert!(Mat3::rotation_y(theta).is_rotation(1e-12));
            assert!(Mat3::rotation_z(theta).is_rotation(1e-12));
        }
    }

    #[test]
    fn skew_reproduces_cross_product() {
        let a = Vec3::new(1.0, -2.0, 0.5);
        let b = Vec3::new(0.3, 4.0, -1.0);
        assert!((Mat3::skew(a) * b - a.cross(b)).norm() < 1e-12);
    }

    #[test]
    fn euler_roundtrip() {
        let angles = [(-0.3, 0.5, 1.2), (0.0, 0.0, 0.0), (1.0, -1.2, -2.9)];
        for (r, p, y) in angles {
            let m = Mat3::from_euler_xyz(r, p, y);
            let (r2, p2, y2) = m.to_euler_xyz();
            let m2 = Mat3::from_euler_xyz(r2, p2, y2);
            assert!((m - m2).max_abs() < 1e-9, "roundtrip failed for {r} {p} {y}");
        }
    }

    fn arb_angle() -> impl Strategy<Value = f64> {
        -PI..PI
    }

    proptest! {
        #[test]
        fn rotation_preserves_norm(r in arb_angle(), p in arb_angle(), y in arb_angle(),
                                   vx in -10.0..10.0, vy in -10.0..10.0, vz in -10.0..10.0) {
            let m = Mat3::from_euler_xyz(r, p, y);
            let v = Vec3::new(vx, vy, vz);
            prop_assert!(((m * v).norm() - v.norm()).abs() < 1e-9);
        }

        #[test]
        fn det_of_product_is_product_of_dets(a in arb_angle(), b in arb_angle()) {
            let m1 = Mat3::rotation_x(a) * Mat3::diagonal(Vec3::new(2.0, 1.0, 0.5));
            let m2 = Mat3::rotation_y(b) * Mat3::diagonal(Vec3::new(1.5, 3.0, 1.0));
            let lhs = (m1 * m2).determinant();
            let rhs = m1.determinant() * m2.determinant();
            prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
        }
    }
}
