//! 6-D spatial (Plücker) algebra in the style of Featherstone's
//! *Rigid Body Dynamics Algorithms*.
//!
//! Spatial vectors combine the angular and linear components of rigid-body
//! motion (velocity, acceleration) and force (moment, force) into single 6-D
//! quantities, which makes the recursive Newton-Euler algorithm (RNEA) and the
//! composite rigid-body algorithm (CRBA) in `corki-robot` short and uniform —
//! exactly the structure the Corki accelerator exploits (pose → velocity →
//! acceleration → force → torque units).

use crate::{Mat3, Vec3, SE3};
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A spatial *motion* vector: angular part on top, linear part below.
///
/// Used for velocities, accelerations and joint motion subspaces.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SpatialMotion {
    /// Angular component (ω).
    pub ang: Vec3,
    /// Linear component (v), measured at the frame origin.
    pub lin: Vec3,
}

/// A spatial *force* vector: moment part on top, linear force below.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SpatialForce {
    /// Moment component (n), about the frame origin.
    pub moment: Vec3,
    /// Linear force component (f).
    pub force: Vec3,
}

impl SpatialMotion {
    /// The zero motion vector.
    pub const ZERO: SpatialMotion = SpatialMotion { ang: Vec3::ZERO, lin: Vec3::ZERO };

    /// Creates a motion vector from angular and linear parts.
    pub const fn new(ang: Vec3, lin: Vec3) -> Self {
        SpatialMotion { ang, lin }
    }

    /// The motion subspace of a revolute joint about the local Z axis.
    pub fn revolute_z() -> Self {
        SpatialMotion::new(Vec3::Z, Vec3::ZERO)
    }

    /// The motion subspace of a prismatic joint along the local Z axis.
    pub fn prismatic_z() -> Self {
        SpatialMotion::new(Vec3::ZERO, Vec3::Z)
    }

    /// Spatial cross product with another motion vector (`crm` in
    /// Featherstone's notation): `self × other`.
    pub fn cross_motion(&self, other: &SpatialMotion) -> SpatialMotion {
        SpatialMotion::new(
            self.ang.cross(other.ang),
            self.ang.cross(other.lin) + self.lin.cross(other.ang),
        )
    }

    /// Spatial cross product with a force vector (`crf`): `self ×* force`.
    pub fn cross_force(&self, f: &SpatialForce) -> SpatialForce {
        SpatialForce::new(
            self.ang.cross(f.moment) + self.lin.cross(f.force),
            self.ang.cross(f.force),
        )
    }

    /// Inner product with a force vector (power / projection onto a joint
    /// axis): `selfᵀ · f`.
    pub fn dot_force(&self, f: &SpatialForce) -> f64 {
        self.ang.dot(f.moment) + self.lin.dot(f.force)
    }

    /// Euclidean norm of the stacked 6-vector.
    pub fn norm(&self) -> f64 {
        (self.ang.norm_squared() + self.lin.norm_squared()).sqrt()
    }

    /// Returns the stacked `[ωx, ωy, ωz, vx, vy, vz]` array.
    pub fn to_array(&self) -> [f64; 6] {
        [self.ang.x, self.ang.y, self.ang.z, self.lin.x, self.lin.y, self.lin.z]
    }
}

impl SpatialForce {
    /// The zero force vector.
    pub const ZERO: SpatialForce = SpatialForce { moment: Vec3::ZERO, force: Vec3::ZERO };

    /// Creates a force vector from moment and linear force parts.
    pub const fn new(moment: Vec3, force: Vec3) -> Self {
        SpatialForce { moment, force }
    }
}

macro_rules! impl_spatial_ops {
    ($t:ty, $a:ident, $b:ident) => {
        impl Add for $t {
            type Output = $t;
            fn add(self, rhs: $t) -> $t {
                <$t>::new(self.$a + rhs.$a, self.$b + rhs.$b)
            }
        }
        impl AddAssign for $t {
            fn add_assign(&mut self, rhs: $t) {
                *self = *self + rhs;
            }
        }
        impl Sub for $t {
            type Output = $t;
            fn sub(self, rhs: $t) -> $t {
                <$t>::new(self.$a - rhs.$a, self.$b - rhs.$b)
            }
        }
        impl Neg for $t {
            type Output = $t;
            fn neg(self) -> $t {
                <$t>::new(-self.$a, -self.$b)
            }
        }
        impl Mul<f64> for $t {
            type Output = $t;
            fn mul(self, rhs: f64) -> $t {
                <$t>::new(self.$a * rhs, self.$b * rhs)
            }
        }
    };
}

impl_spatial_ops!(SpatialMotion, ang, lin);
impl_spatial_ops!(SpatialForce, moment, force);

/// A Plücker coordinate transform `^B X_A` between two frames.
///
/// Maps spatial motion vectors expressed in frame *A* into frame *B*.
/// Parameterised by the rotation `rot` taking A-coordinates to B-coordinates
/// and the position `trans` of B's origin expressed in A.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpatialTransform {
    /// Rotation from A coordinates to B coordinates.
    pub rot: Mat3,
    /// Position of frame B's origin, expressed in frame A.
    pub trans: Vec3,
}

impl Default for SpatialTransform {
    fn default() -> Self {
        SpatialTransform::identity()
    }
}

impl SpatialTransform {
    /// The identity transform.
    pub fn identity() -> Self {
        SpatialTransform { rot: Mat3::identity(), trans: Vec3::ZERO }
    }

    /// Builds `^child X_parent` from the pose of the child frame expressed in
    /// the parent frame (`p_parent = R p_child + t`).
    pub fn from_pose(pose_of_child_in_parent: &SE3) -> Self {
        SpatialTransform {
            rot: pose_of_child_in_parent.rotation.transpose(),
            trans: pose_of_child_in_parent.translation,
        }
    }

    /// The corresponding child pose in the parent frame (inverse of
    /// [`SpatialTransform::from_pose`]).
    pub fn to_pose(&self) -> SE3 {
        SE3::new(self.rot.transpose(), self.trans)
    }

    /// Transforms a motion vector from frame A into frame B.
    pub fn apply_motion(&self, m: &SpatialMotion) -> SpatialMotion {
        SpatialMotion::new(self.rot * m.ang, self.rot * (m.lin - self.trans.cross(m.ang)))
    }

    /// Transforms a force vector from frame A into frame B.
    pub fn apply_force(&self, f: &SpatialForce) -> SpatialForce {
        SpatialForce::new(self.rot * (f.moment - self.trans.cross(f.force)), self.rot * f.force)
    }

    /// Transforms a motion vector from frame B back into frame A.
    pub fn inv_apply_motion(&self, m: &SpatialMotion) -> SpatialMotion {
        let ang = self.rot.transpose() * m.ang;
        let lin = self.rot.transpose() * m.lin + self.trans.cross(ang);
        SpatialMotion::new(ang, lin)
    }

    /// Transforms a force vector from frame B back into frame A.
    pub fn inv_apply_force(&self, f: &SpatialForce) -> SpatialForce {
        let force = self.rot.transpose() * f.force;
        let moment = self.rot.transpose() * f.moment + self.trans.cross(force);
        SpatialForce::new(moment, force)
    }
}

/// A rigid-body spatial inertia expressed in a particular frame, parameterised
/// by mass, centre-of-mass offset and rotational inertia about the centre of
/// mass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpatialInertia {
    /// Body mass in kilograms.
    pub mass: f64,
    /// Centre of mass expressed in the body frame.
    pub com: Vec3,
    /// Rotational inertia about the centre of mass, in the body frame.
    pub inertia_com: Mat3,
}

impl Default for SpatialInertia {
    fn default() -> Self {
        SpatialInertia::zero()
    }
}

impl SpatialInertia {
    /// The zero inertia (massless body).
    pub fn zero() -> Self {
        SpatialInertia { mass: 0.0, com: Vec3::ZERO, inertia_com: Mat3::zero() }
    }

    /// Creates an inertia from mass, centre of mass and rotational inertia
    /// about the centre of mass.
    ///
    /// # Panics
    ///
    /// Panics if `mass` is negative.
    pub fn new(mass: f64, com: Vec3, inertia_com: Mat3) -> Self {
        assert!(mass >= 0.0, "mass must be non-negative");
        SpatialInertia { mass, com, inertia_com }
    }

    /// A solid-sphere approximation, useful in tests.
    pub fn solid_sphere(mass: f64, radius: f64, com: Vec3) -> Self {
        let i = 0.4 * mass * radius * radius;
        SpatialInertia::new(mass, com, Mat3::diagonal(Vec3::splat(i)))
    }

    /// Applies the inertia to a motion vector, producing the corresponding
    /// momentum/force vector `I · m` (both expressed in the same frame).
    pub fn apply(&self, m: &SpatialMotion) -> SpatialForce {
        // Linear momentum: p = m (v + ω × c)
        let p = (m.lin + m.ang.cross(self.com)) * self.mass;
        // Angular momentum about the frame origin:
        // L = I_C ω + c × p
        let l = self.inertia_com * m.ang + self.com.cross(p);
        SpatialForce::new(l, p)
    }

    /// Combines two inertias expressed in the same frame (composite body).
    pub fn combine(&self, other: &SpatialInertia) -> SpatialInertia {
        let mass = self.mass + other.mass;
        if mass < 1e-12 {
            return SpatialInertia::zero();
        }
        let com = (self.com * self.mass + other.com * other.mass) / mass;
        // Parallel-axis both inertias to the new common centre of mass.
        let shift = |inertia: &Mat3, m: f64, c: Vec3| -> Mat3 {
            let d = c - com;
            let d2 = d.norm_squared();
            *inertia + (Mat3::identity() * d2 - Mat3::outer(d, d)) * m
        };
        let inertia_com = shift(&self.inertia_com, self.mass, self.com)
            + shift(&other.inertia_com, other.mass, other.com);
        SpatialInertia { mass, com, inertia_com }
    }

    /// Re-expresses this inertia (attached to a child body) in the parent
    /// frame, given the pose of the child frame in the parent frame.
    pub fn expressed_in_parent(&self, pose_of_child_in_parent: &SE3) -> SpatialInertia {
        let r = pose_of_child_in_parent.rotation;
        SpatialInertia {
            mass: self.mass,
            com: pose_of_child_in_parent.transform_point(self.com),
            inertia_com: r * self.inertia_com * r.transpose(),
        }
    }

    /// The full 6×6 spatial-inertia matrix (moment rows on top), mostly used
    /// in tests and for the task-space mass-matrix computation.
    pub fn to_matrix(&self) -> SpatialMat {
        let cx = Mat3::skew(self.com);
        let upper_left = self.inertia_com + cx * cx.transpose() * self.mass;
        let upper_right = cx * self.mass;
        let lower_left = cx.transpose() * self.mass;
        let lower_right = Mat3::identity() * self.mass;
        SpatialMat::from_blocks(upper_left, upper_right, lower_left, lower_right)
    }
}

/// A dense 6×6 matrix, stored row-major; the block structure follows the
/// spatial-vector layout (angular/moment block first).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpatialMat {
    /// Row-major entries.
    pub m: [[f64; 6]; 6],
}

impl Default for SpatialMat {
    fn default() -> Self {
        SpatialMat::zero()
    }
}

impl SpatialMat {
    /// The zero matrix.
    pub const fn zero() -> Self {
        SpatialMat { m: [[0.0; 6]; 6] }
    }

    /// Builds a 6×6 matrix from four 3×3 blocks.
    pub fn from_blocks(ul: Mat3, ur: Mat3, ll: Mat3, lr: Mat3) -> Self {
        let mut out = SpatialMat::zero();
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = ul.m[i][j];
                out.m[i][j + 3] = ur.m[i][j];
                out.m[i + 3][j] = ll.m[i][j];
                out.m[i + 3][j + 3] = lr.m[i][j];
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> SpatialMat {
        let mut out = SpatialMat::zero();
        for i in 0..6 {
            for j in 0..6 {
                out.m[i][j] = self.m[j][i];
            }
        }
        out
    }

    /// Matrix-vector product with a motion vector, producing a force vector
    /// (the natural typing for a spatial inertia).
    pub fn mul_motion(&self, v: &SpatialMotion) -> SpatialForce {
        let x = v.to_array();
        let mut y = [0.0; 6];
        for (yi, row) in y.iter_mut().zip(&self.m) {
            *yi = row.iter().zip(&x).map(|(mij, xj)| mij * xj).sum();
        }
        SpatialForce::new(Vec3::new(y[0], y[1], y[2]), Vec3::new(y[3], y[4], y[5]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    fn example_transform() -> SpatialTransform {
        let pose = SE3::new(Mat3::from_euler_xyz(0.2, -0.3, 0.5), Vec3::new(0.1, 0.4, -0.2));
        SpatialTransform::from_pose(&pose)
    }

    #[test]
    fn transform_inverse_roundtrip_motion() {
        let x = example_transform();
        let m = SpatialMotion::new(Vec3::new(0.3, -1.0, 0.7), Vec3::new(1.0, 0.2, -0.5));
        let roundtrip = x.inv_apply_motion(&x.apply_motion(&m));
        assert!((roundtrip.ang - m.ang).norm() < 1e-12);
        assert!((roundtrip.lin - m.lin).norm() < 1e-12);
    }

    #[test]
    fn transform_inverse_roundtrip_force() {
        let x = example_transform();
        let f = SpatialForce::new(Vec3::new(0.3, -1.0, 0.7), Vec3::new(1.0, 0.2, -0.5));
        let roundtrip = x.inv_apply_force(&x.apply_force(&f));
        assert!((roundtrip.moment - f.moment).norm() < 1e-12);
        assert!((roundtrip.force - f.force).norm() < 1e-12);
    }

    #[test]
    fn power_is_invariant_under_change_of_frame() {
        // mᵀ f is a physical scalar (power) and must not depend on the frame.
        let x = example_transform();
        let m = SpatialMotion::new(Vec3::new(0.5, 0.2, -0.1), Vec3::new(0.3, -0.4, 0.9));
        let f = SpatialForce::new(Vec3::new(-1.0, 0.3, 0.2), Vec3::new(2.0, 0.0, -0.5));
        let power_a = m.dot_force(&f);
        let power_b = x.apply_motion(&m).dot_force(&x.apply_force(&f));
        assert!((power_a - power_b).abs() < 1e-12);
    }

    #[test]
    fn composition_matches_sequential_application() {
        let pose1 = SE3::new(Mat3::rotation_x(0.4), Vec3::new(0.1, 0.0, 0.3));
        let pose2 = SE3::new(Mat3::rotation_z(-0.9), Vec3::new(0.0, 0.2, 0.0));
        let x1 = SpatialTransform::from_pose(&pose1); // frame1 <- frame0
        let x2 = SpatialTransform::from_pose(&pose2); // frame2 <- frame1
        let m = SpatialMotion::new(Vec3::new(0.3, 0.6, -0.2), Vec3::new(1.0, -1.0, 0.5));
        let sequential = x2.apply_motion(&x1.apply_motion(&m));
        // Frame 2's pose in frame 0 is pose1 · pose2.
        let composed = SpatialTransform::from_pose(&(pose1 * pose2)).apply_motion(&m);
        assert!((sequential.ang - composed.ang).norm() < 1e-12);
        assert!((sequential.lin - composed.lin).norm() < 1e-12);
    }

    #[test]
    fn from_pose_to_pose_roundtrip() {
        let pose = SE3::new(Mat3::from_euler_xyz(0.3, 0.2, -0.6), Vec3::new(1.0, -2.0, 0.5));
        let x = SpatialTransform::from_pose(&pose);
        let back = x.to_pose();
        assert!((back.rotation - pose.rotation).max_abs() < 1e-12);
        assert!((back.translation - pose.translation).norm() < 1e-12);
    }

    #[test]
    fn inertia_apply_matches_matrix_form() {
        let inertia = SpatialInertia::new(
            2.5,
            Vec3::new(0.1, -0.05, 0.2),
            Mat3::diagonal(Vec3::new(0.02, 0.03, 0.015)),
        );
        let m = SpatialMotion::new(Vec3::new(0.4, 0.7, -0.3), Vec3::new(0.2, -0.1, 0.6));
        let f1 = inertia.apply(&m);
        let f2 = inertia.to_matrix().mul_motion(&m);
        assert!((f1.moment - f2.moment).norm() < 1e-10);
        assert!((f1.force - f2.force).norm() < 1e-10);
    }

    #[test]
    fn inertia_matrix_is_symmetric() {
        let inertia = SpatialInertia::new(
            1.7,
            Vec3::new(-0.2, 0.3, 0.05),
            Mat3::diagonal(Vec3::new(0.05, 0.02, 0.04)),
        );
        let m = inertia.to_matrix();
        let diff_t = {
            let t = m.transpose();
            let mut max = 0.0_f64;
            for i in 0..6 {
                for j in 0..6 {
                    max = max.max((m.m[i][j] - t.m[i][j]).abs());
                }
            }
            max
        };
        assert!(diff_t < 1e-12);
    }

    #[test]
    fn combining_inertia_preserves_mass_and_momentum() {
        let a = SpatialInertia::solid_sphere(1.0, 0.1, Vec3::new(0.3, 0.0, 0.0));
        let b = SpatialInertia::solid_sphere(2.0, 0.2, Vec3::new(-0.1, 0.2, 0.0));
        let c = a.combine(&b);
        assert!((c.mass - 3.0).abs() < 1e-12);
        // Applying the combined inertia must equal the sum of the parts.
        let m = SpatialMotion::new(Vec3::new(0.2, -0.4, 0.6), Vec3::new(0.5, 0.1, -0.3));
        let f_sum = a.apply(&m) + b.apply(&m);
        let f_combined = c.apply(&m);
        assert!((f_sum.moment - f_combined.moment).norm() < 1e-9);
        assert!((f_sum.force - f_combined.force).norm() < 1e-9);
    }

    #[test]
    fn kinetic_energy_is_positive() {
        let inertia = SpatialInertia::solid_sphere(2.0, 0.15, Vec3::new(0.1, 0.1, 0.0));
        let m = SpatialMotion::new(Vec3::new(1.0, -2.0, 0.5), Vec3::new(0.3, 0.0, -1.0));
        let ke = 0.5 * m.dot_force(&inertia.apply(&m));
        assert!(ke > 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_mass_panics() {
        let _ = SpatialInertia::new(-1.0, Vec3::ZERO, Mat3::identity());
    }

    fn arb_motion() -> impl Strategy<Value = SpatialMotion> {
        (-3.0..3.0, -3.0..3.0, -3.0..3.0, -3.0..3.0, -3.0..3.0, -3.0..3.0).prop_map(
            |(a, b, c, d, e, f)| SpatialMotion::new(Vec3::new(a, b, c), Vec3::new(d, e, f)),
        )
    }

    proptest! {
        #[test]
        fn cross_motion_with_self_is_zero(m in arb_motion()) {
            let c = m.cross_motion(&m);
            prop_assert!(c.norm() < 1e-9);
        }

        #[test]
        fn spatial_cross_products_respect_power_balance(
            v in arb_motion(), m in arb_motion(),
            r in -PI..PI, tx in -1.0..1.0) {
            // Jacobi-like identity check under a change of frame:
            // X (v × m) == (X v) × (X m)
            let pose = SE3::new(Mat3::rotation_y(r), Vec3::new(tx, 0.2, -0.1));
            let x = SpatialTransform::from_pose(&pose);
            let lhs = x.apply_motion(&v.cross_motion(&m));
            let rhs = x.apply_motion(&v).cross_motion(&x.apply_motion(&m));
            prop_assert!((lhs.ang - rhs.ang).norm() < 1e-9);
            prop_assert!((lhs.lin - rhs.lin).norm() < 1e-9);
        }
    }
}
