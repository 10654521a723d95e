//! 3-dimensional vectors.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-dimensional column vector of `f64`.
///
/// Used throughout the workspace for positions, linear/angular velocities and
/// Euler-angle triples.
///
/// ```
/// use corki_math::Vec3;
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::new(4.0, 5.0, 6.0);
/// assert_eq!(a.dot(b), 32.0);
/// assert_eq!(a.cross(b), Vec3::new(-3.0, 6.0, -3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit vector along X.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit vector along Y.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit vector along Z.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Returns the components as an array `[x, y, z]`.
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Returns a unit vector in the same direction, or `None` if the norm is
    /// (nearly) zero.
    pub fn try_normalize(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Returns a unit vector in the same direction.
    ///
    /// # Panics
    ///
    /// Panics if the vector is (nearly) zero.
    pub fn normalize(self) -> Vec3 {
        self.try_normalize().expect("cannot normalize a zero-length Vec3")
    }

    /// Linear interpolation: `self * (1 - t) + other * t`.
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self * (1.0 - t) + other * t
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl std::fmt::Display for Vec3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.6}, {:.6}, {:.6})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
    }

    #[test]
    fn cross_product_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn normalize_and_zero() {
        let v = Vec3::new(3.0, 0.0, 4.0);
        assert!((v.normalize().norm() - 1.0).abs() < 1e-12);
        assert!(Vec3::ZERO.try_normalize().is_none());
    }

    #[test]
    fn indexing_roundtrip() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        v[1] = 7.0;
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 7.0);
        assert_eq!(v[2], 3.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(0.5, 1.0, 1.5));
    }

    #[test]
    fn conversions() {
        let v = Vec3::from([1.0, 2.0, 3.0]);
        let a: [f64; 3] = v.into();
        assert_eq!(a, [1.0, 2.0, 3.0]);
    }

    fn arb_vec3() -> impl Strategy<Value = Vec3> {
        (-1e3..1e3, -1e3..1e3, -1e3..1e3).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        #[test]
        fn dot_is_commutative(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!((a.dot(b) - b.dot(a)).abs() < 1e-9);
        }

        #[test]
        fn cross_is_anticommutative(a in arb_vec3(), b in arb_vec3()) {
            let lhs = a.cross(b);
            let rhs = -(b.cross(a));
            prop_assert!((lhs - rhs).norm() < 1e-9);
        }

        #[test]
        fn triangle_inequality(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        }

        #[test]
        fn lagrange_identity(a in arb_vec3(), b in arb_vec3()) {
            // |a x b|^2 = |a|^2 |b|^2 - (a.b)^2
            let lhs = a.cross(b).norm_squared();
            let rhs = a.norm_squared() * b.norm_squared() - a.dot(b).powi(2);
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + rhs.abs()));
        }
    }
}
