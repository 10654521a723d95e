//! Unit quaternions for representing orientations.

use crate::{Mat3, Vec3};
use serde::{Deserialize, Serialize};
use std::ops::Mul;

/// A unit quaternion `w + xi + yj + zk` representing a rotation in SO(3).
///
/// Quaternions are used by the simulator to interpolate end-effector
/// orientations smoothly (slerp) and to avoid accumulating the numerical
/// drift of chained rotation matrices.
///
/// ```
/// use corki_math::{UnitQuaternion, Vec3};
/// let q = UnitQuaternion::from_axis_angle(Vec3::Z, std::f64::consts::FRAC_PI_2);
/// let v = q.rotate(Vec3::X);
/// assert!((v - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitQuaternion {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x component.
    pub x: f64,
    /// Vector part, y component.
    pub y: f64,
    /// Vector part, z component.
    pub z: f64,
}

impl Default for UnitQuaternion {
    fn default() -> Self {
        UnitQuaternion::identity()
    }
}

impl UnitQuaternion {
    /// The identity rotation.
    pub const fn identity() -> Self {
        UnitQuaternion { w: 1.0, x: 0.0, y: 0.0, z: 0.0 }
    }

    /// Builds a quaternion from raw components, normalising them.
    ///
    /// # Panics
    ///
    /// Panics if all components are (nearly) zero.
    pub fn new_normalized(w: f64, x: f64, y: f64, z: f64) -> Self {
        let n = (w * w + x * x + y * y + z * z).sqrt();
        assert!(n > 1e-12, "cannot normalise a zero quaternion");
        UnitQuaternion { w: w / n, x: x / n, y: y / n, z: z / n }
    }

    /// Rotation of `angle` radians about `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is (nearly) zero.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        let a = axis.normalize();
        let (s, c) = (angle * 0.5).sin_cos();
        UnitQuaternion { w: c, x: a.x * s, y: a.y * s, z: a.z * s }
    }

    /// Builds a quaternion from intrinsic XYZ (roll, pitch, yaw) Euler angles.
    pub fn from_euler_xyz(roll: f64, pitch: f64, yaw: f64) -> Self {
        UnitQuaternion::from_rotation_matrix(&Mat3::from_euler_xyz(roll, pitch, yaw))
    }

    /// Builds a quaternion from a rotation matrix (Shepperd's method).
    pub fn from_rotation_matrix(r: &Mat3) -> Self {
        let m = &r.m;
        let trace = r.trace();
        if trace > 0.0 {
            let s = (trace + 1.0).sqrt() * 2.0;
            UnitQuaternion::new_normalized(
                0.25 * s,
                (m[2][1] - m[1][2]) / s,
                (m[0][2] - m[2][0]) / s,
                (m[1][0] - m[0][1]) / s,
            )
        } else if m[0][0] > m[1][1] && m[0][0] > m[2][2] {
            let s = (1.0 + m[0][0] - m[1][1] - m[2][2]).sqrt() * 2.0;
            UnitQuaternion::new_normalized(
                (m[2][1] - m[1][2]) / s,
                0.25 * s,
                (m[0][1] + m[1][0]) / s,
                (m[0][2] + m[2][0]) / s,
            )
        } else if m[1][1] > m[2][2] {
            let s = (1.0 + m[1][1] - m[0][0] - m[2][2]).sqrt() * 2.0;
            UnitQuaternion::new_normalized(
                (m[0][2] - m[2][0]) / s,
                (m[0][1] + m[1][0]) / s,
                0.25 * s,
                (m[1][2] + m[2][1]) / s,
            )
        } else {
            let s = (1.0 + m[2][2] - m[0][0] - m[1][1]).sqrt() * 2.0;
            UnitQuaternion::new_normalized(
                (m[1][0] - m[0][1]) / s,
                (m[0][2] + m[2][0]) / s,
                (m[1][2] + m[2][1]) / s,
                0.25 * s,
            )
        }
    }

    /// Converts to a rotation matrix.
    pub fn to_rotation_matrix(&self) -> Mat3 {
        let (w, x, y, z) = (self.w, self.x, self.y, self.z);
        Mat3::from_rows(
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        )
    }

    /// The conjugate (inverse rotation for a unit quaternion).
    pub fn conjugate(&self) -> UnitQuaternion {
        UnitQuaternion { w: self.w, x: -self.x, y: -self.y, z: -self.z }
    }

    /// Rotates a vector.
    pub fn rotate(&self, v: Vec3) -> Vec3 {
        self.to_rotation_matrix() * v
    }

    /// The quaternion dot product with `other`.
    pub fn dot(&self, other: &UnitQuaternion) -> f64 {
        self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// The geodesic angle (radians) between two orientations, in `[0, pi]`.
    pub fn angle_to(&self, other: &UnitQuaternion) -> f64 {
        let d = self.dot(other).abs().min(1.0);
        2.0 * d.acos()
    }

    /// Spherical linear interpolation from `self` (t = 0) to `other` (t = 1).
    pub fn slerp(&self, other: &UnitQuaternion, t: f64) -> UnitQuaternion {
        let mut cos_half = self.dot(other);
        // Take the short path.
        let mut o = *other;
        if cos_half < 0.0 {
            o = UnitQuaternion { w: -o.w, x: -o.x, y: -o.y, z: -o.z };
            cos_half = -cos_half;
        }
        if cos_half > 1.0 - 1e-9 {
            // Nearly identical: linear interpolation avoids division by ~0.
            return UnitQuaternion::new_normalized(
                self.w + t * (o.w - self.w),
                self.x + t * (o.x - self.x),
                self.y + t * (o.y - self.y),
                self.z + t * (o.z - self.z),
            );
        }
        let half_angle = cos_half.acos();
        let sin_half = half_angle.sin();
        let wa = ((1.0 - t) * half_angle).sin() / sin_half;
        let wb = (t * half_angle).sin() / sin_half;
        UnitQuaternion::new_normalized(
            wa * self.w + wb * o.w,
            wa * self.x + wb * o.x,
            wa * self.y + wb * o.y,
            wa * self.z + wb * o.z,
        )
    }

    /// Norm of the underlying 4-vector (should always be ≈ 1).
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }
}

impl Mul for UnitQuaternion {
    type Output = UnitQuaternion;
    fn mul(self, rhs: UnitQuaternion) -> UnitQuaternion {
        UnitQuaternion::new_normalized(
            self.w * rhs.w - self.x * rhs.x - self.y * rhs.y - self.z * rhs.z,
            self.w * rhs.x + self.x * rhs.w + self.y * rhs.z - self.z * rhs.y,
            self.w * rhs.y - self.x * rhs.z + self.y * rhs.w + self.z * rhs.x,
            self.w * rhs.z + self.x * rhs.y - self.y * rhs.x + self.z * rhs.w,
        )
    }
}

impl std::fmt::Display for UnitQuaternion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q({:.6} + {:.6}i + {:.6}j + {:.6}k)", self.w, self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_rotation_is_noop() {
        let q = UnitQuaternion::identity();
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert!((q.rotate(v) - v).norm() < 1e-12);
    }

    #[test]
    fn axis_angle_matches_matrix() {
        let q = UnitQuaternion::from_axis_angle(Vec3::new(1.0, 1.0, 0.0), 0.9);
        // Rodrigues: R = I + sin θ K + (1 − cos θ) K², K = skew(axis).
        let k = Mat3::skew(Vec3::new(1.0, 1.0, 0.0).normalize());
        let (s, c) = 0.9_f64.sin_cos();
        let m = Mat3::identity() + k * s + (k * k) * (1.0 - c);
        assert!((q.to_rotation_matrix() - m).max_abs() < 1e-12);
    }

    #[test]
    fn matrix_roundtrip() {
        for (r, p, y) in [(0.1, -0.4, 2.0), (1.5, 0.2, -0.7), (0.0, 0.0, 0.0)] {
            let m = Mat3::from_euler_xyz(r, p, y);
            let q = UnitQuaternion::from_rotation_matrix(&m);
            assert!((q.to_rotation_matrix() - m).max_abs() < 1e-9);
        }
    }

    #[test]
    fn conjugate_inverts() {
        let q = UnitQuaternion::from_euler_xyz(0.2, 0.4, -0.5);
        let composed = q * q.conjugate();
        assert!(composed.angle_to(&UnitQuaternion::identity()) < 1e-9);
    }

    #[test]
    fn slerp_endpoints_and_midpoint() {
        let a = UnitQuaternion::identity();
        let b = UnitQuaternion::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert!(a.slerp(&b, 0.0).angle_to(&a) < 1e-9);
        assert!(a.slerp(&b, 1.0).angle_to(&b) < 1e-9);
        let mid = a.slerp(&b, 0.5);
        let expected = UnitQuaternion::from_axis_angle(Vec3::Z, FRAC_PI_2 / 2.0);
        assert!(mid.angle_to(&expected) < 1e-9);
    }

    #[test]
    fn angle_to_is_symmetric() {
        let a = UnitQuaternion::from_euler_xyz(0.3, 0.1, -0.2);
        let b = UnitQuaternion::from_euler_xyz(-1.0, 0.4, 0.9);
        assert!((a.angle_to(&b) - b.angle_to(&a)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn composition_matches_matrix_composition(
            r1 in -PI..PI, p1 in -1.5..1.5, y1 in -PI..PI,
            r2 in -PI..PI, p2 in -1.5..1.5, y2 in -PI..PI) {
            let qa = UnitQuaternion::from_euler_xyz(r1, p1, y1);
            let qb = UnitQuaternion::from_euler_xyz(r2, p2, y2);
            let lhs = (qa * qb).to_rotation_matrix();
            let rhs = qa.to_rotation_matrix() * qb.to_rotation_matrix();
            prop_assert!((lhs - rhs).max_abs() < 1e-9);
        }

        #[test]
        fn quaternion_stays_unit(r in -PI..PI, p in -1.5..1.5, y in -PI..PI) {
            let q = UnitQuaternion::from_euler_xyz(r, p, y);
            prop_assert!((q.norm() - 1.0).abs() < 1e-12);
        }
    }
}
