//! Fixed-size linear and spatial algebra for the DaDu-Corki reproduction.
//!
//! This crate provides the small, dependency-free math substrate used by the
//! rigid-body dynamics (`corki-robot`), trajectory (`corki-trajectory`) and
//! accelerator-model crates:
//!
//! * 3-vectors, 3×3 matrices, unit quaternions and SE(3) rigid transforms,
//! * 6-D spatial (Plücker) vectors and 6×6 spatial matrices in the style of
//!   Featherstone's *Rigid Body Dynamics Algorithms*,
//! * row-major slice kernels ([`dense`]): matrix products and LU and
//!   Cholesky solvers that run on stack buffers (used for the 7×7
//!   joint-space mass matrix and the 6×6 task-space mass matrix),
//! * cubic polynomials, the trajectory primitive of the Corki algorithm.
//!
//! # Example
//!
//! ```
//! use corki_math::{Vec3, Mat3, SE3};
//!
//! let rotation = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
//! let pose = SE3::new(rotation, Vec3::new(1.0, 0.0, 0.0));
//! let p = pose.transform_point(Vec3::new(1.0, 0.0, 0.0));
//! assert!((p - Vec3::new(1.0, 1.0, 0.0)).norm() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cubic;
pub mod dense;
mod mat3;
mod quat;
mod se3;
mod spatial;
mod vec3;

pub use cubic::CubicPoly;
pub use mat3::Mat3;
pub use quat::UnitQuaternion;
pub use se3::SE3;
pub use spatial::{SpatialForce, SpatialInertia, SpatialMat, SpatialMotion, SpatialTransform};
pub use vec3::Vec3;

/// Wraps an angle in radians into `(-pi, pi]`.
///
/// ```
/// use std::f64::consts::PI;
/// let wrapped = corki_math::wrap_angle(3.0 * PI);
/// assert!((wrapped - PI).abs() < 1e-12);
/// ```
pub fn wrap_angle(theta: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut t = theta % two_pi;
    if t <= -std::f64::consts::PI {
        t += two_pi;
    } else if t > std::f64::consts::PI {
        t -= two_pi;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn wrap_angle_range() {
        for k in -10..=10 {
            let theta = 0.3 + k as f64 * 2.0 * PI;
            let w = wrap_angle(theta);
            assert!(w > -PI && w <= PI);
            assert!((w - 0.3).abs() < 1e-9);
        }
    }

    #[test]
    fn wrap_angle_boundary() {
        assert!((wrap_angle(PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-PI) - PI).abs() < 1e-12);
    }
}
