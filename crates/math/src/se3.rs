//! Rigid-body transforms in SE(3).

use crate::{Mat3, UnitQuaternion, Vec3};
use serde::{Deserialize, Serialize};
use std::ops::Mul;

/// A rigid-body transform (rotation + translation) in SE(3).
///
/// `SE3` maps points expressed in a *child* frame into the *parent* frame:
/// `p_parent = R * p_child + t`.
///
/// ```
/// use corki_math::{SE3, Mat3, Vec3};
/// let a = SE3::new(Mat3::rotation_z(0.3), Vec3::new(1.0, 0.0, 0.0));
/// let b = SE3::new(Mat3::rotation_z(-0.3), Vec3::new(0.0, 2.0, 0.0));
/// let c = a * b;
/// let p = c.transform_point(Vec3::ZERO);
/// assert!((p - a.transform_point(b.transform_point(Vec3::ZERO))).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SE3 {
    /// Rotation part.
    pub rotation: Mat3,
    /// Translation part.
    pub translation: Vec3,
}

impl Default for SE3 {
    fn default() -> Self {
        SE3::identity()
    }
}

impl SE3 {
    /// The identity transform.
    pub fn identity() -> Self {
        SE3 { rotation: Mat3::identity(), translation: Vec3::ZERO }
    }

    /// Creates a transform from a rotation matrix and a translation.
    pub fn new(rotation: Mat3, translation: Vec3) -> Self {
        SE3 { rotation, translation }
    }

    /// A pure rotation.
    pub fn from_rotation(r: Mat3) -> Self {
        SE3::new(r, Vec3::ZERO)
    }

    /// Builds a transform from a unit quaternion and translation.
    pub fn from_quat_translation(q: UnitQuaternion, t: Vec3) -> Self {
        SE3::new(q.to_rotation_matrix(), t)
    }

    /// Builds a transform following the modified Denavit-Hartenberg (Craig)
    /// convention used by the Franka Emika Panda datasheet:
    /// parameters `(a, d, alpha, theta)`.
    pub fn from_mdh(a: f64, d: f64, alpha: f64, theta: f64) -> Self {
        let (st, ct) = theta.sin_cos();
        let (sa, ca) = alpha.sin_cos();
        let rotation =
            Mat3::from_rows([ct, -st, 0.0], [st * ca, ct * ca, -sa], [st * sa, ct * sa, ca]);
        let translation = Vec3::new(a, -sa * d, ca * d);
        SE3::new(rotation, translation)
    }

    /// The inverse transform.
    pub fn inverse(&self) -> SE3 {
        let rt = self.rotation.transpose();
        SE3::new(rt, -(rt * self.translation))
    }

    /// Transforms a point from the child frame into the parent frame.
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation * p + self.translation
    }

    /// The orientation as a unit quaternion.
    pub fn quaternion(&self) -> UnitQuaternion {
        UnitQuaternion::from_rotation_matrix(&self.rotation)
    }

    /// The orientation as XYZ (roll, pitch, yaw) Euler angles.
    pub fn euler_xyz(&self) -> (f64, f64, f64) {
        self.rotation.to_euler_xyz()
    }

    /// Interpolates between two transforms (slerp on rotation, lerp on
    /// translation); `t` in `[0, 1]`.
    pub fn interpolate(&self, other: &SE3, t: f64) -> SE3 {
        let q = self.quaternion().slerp(&other.quaternion(), t);
        let p = self.translation.lerp(other.translation, t);
        SE3::from_quat_translation(q, p)
    }

    /// Distance metric combining translation distance and rotation angle:
    /// `|t_a - t_b| + w * angle(R_a, R_b)`.
    pub fn distance(&self, other: &SE3, rotation_weight: f64) -> f64 {
        let dt = self.translation.distance(other.translation);
        let dr = self.quaternion().angle_to(&other.quaternion());
        dt + rotation_weight * dr
    }
}

impl Mul for SE3 {
    type Output = SE3;
    fn mul(self, rhs: SE3) -> SE3 {
        SE3::new(self.rotation * rhs.rotation, self.rotation * rhs.translation + self.translation)
    }
}

impl std::fmt::Display for SE3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (r, p, y) = self.euler_xyz();
        write!(f, "SE3(t = {}, rpy = ({:.4}, {:.4}, {:.4}))", self.translation, r, p, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    #[test]
    fn identity_is_neutral() {
        let t = SE3::new(Mat3::rotation_y(0.4), Vec3::new(1.0, 2.0, 3.0));
        let p = Vec3::new(-1.0, 0.5, 2.0);
        assert!(((t * SE3::identity()).transform_point(p) - t.transform_point(p)).norm() < 1e-12);
        assert!(((SE3::identity() * t).transform_point(p) - t.transform_point(p)).norm() < 1e-12);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let t = SE3::new(Mat3::from_euler_xyz(0.1, 0.2, 0.3), Vec3::new(0.4, -0.5, 0.6));
        let composed = t * t.inverse();
        assert!((composed.rotation - Mat3::identity()).max_abs() < 1e-12);
        assert!(composed.translation.norm() < 1e-12);
    }

    #[test]
    fn composition_is_associative() {
        let a = SE3::new(Mat3::rotation_x(0.3), Vec3::new(1.0, 0.0, 0.0));
        let b = SE3::new(Mat3::rotation_y(-0.8), Vec3::new(0.0, 1.0, 0.0));
        let c = SE3::new(Mat3::rotation_z(1.4), Vec3::new(0.0, 0.0, 1.0));
        let lhs = (a * b) * c;
        let rhs = a * (b * c);
        assert!((lhs.rotation - rhs.rotation).max_abs() < 1e-12);
        assert!((lhs.translation - rhs.translation).norm() < 1e-12);
    }

    #[test]
    fn mdh_zero_parameters_is_identity() {
        let t = SE3::from_mdh(0.0, 0.0, 0.0, 0.0);
        assert!((t.rotation - Mat3::identity()).max_abs() < 1e-12);
        assert!(t.translation.norm() < 1e-12);
    }

    #[test]
    fn mdh_pure_theta_is_z_rotation() {
        let theta = 0.7;
        let t = SE3::from_mdh(0.0, 0.0, 0.0, theta);
        assert!((t.rotation - Mat3::rotation_z(theta)).max_abs() < 1e-12);
    }

    #[test]
    fn mdh_translation_components() {
        // With alpha = 0 the d offset is along +Z and a along +X.
        let t = SE3::from_mdh(0.3, 0.5, 0.0, 0.0);
        assert!((t.translation - Vec3::new(0.3, 0.0, 0.5)).norm() < 1e-12);
    }

    #[test]
    fn interpolate_endpoints() {
        let a = SE3::new(Mat3::rotation_z(0.0), Vec3::ZERO);
        let b = SE3::new(Mat3::rotation_z(1.0), Vec3::new(1.0, 2.0, 3.0));
        assert!(a.interpolate(&b, 0.0).distance(&a, 1.0) < 1e-9);
        assert!(a.interpolate(&b, 1.0).distance(&b, 1.0) < 1e-9);
    }

    proptest! {
        #[test]
        fn transform_point_roundtrip(
            r in -PI..PI, p in -1.5..1.5, y in -PI..PI,
            tx in -2.0..2.0, ty in -2.0..2.0, tz in -2.0..2.0,
            px in -5.0..5.0, py in -5.0..5.0, pz in -5.0..5.0) {
            let t = SE3::new(Mat3::from_euler_xyz(r, p, y), Vec3::new(tx, ty, tz));
            let point = Vec3::new(px, py, pz);
            let roundtrip = t.inverse().transform_point(t.transform_point(point));
            prop_assert!((roundtrip - point).norm() < 1e-9);
        }

        #[test]
        fn distance_is_zero_only_for_same_pose(
            r in -PI..PI, tx in -2.0..2.0) {
            let t = SE3::new(Mat3::rotation_z(r), Vec3::new(tx, 0.0, 0.0));
            prop_assert!(t.distance(&t, 0.5) < 1e-9);
        }
    }
}
