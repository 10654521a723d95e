//! Joint-space and task-space state containers.

use corki_math::{Vec3, SE3};
use serde::{Deserialize, Serialize};

/// The joint-space state of the manipulator: positions and velocities of the
/// actuated joints.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JointState {
    /// Joint positions `θ` (radians for revolute joints).
    pub positions: Vec<f64>,
    /// Joint velocities `θ̇` (rad/s).
    pub velocities: Vec<f64>,
}

impl JointState {
    /// A state with all positions and velocities set to zero.
    pub fn zeros(dof: usize) -> Self {
        JointState { positions: vec![0.0; dof], velocities: vec![0.0; dof] }
    }

    /// Creates a state from position and velocity vectors.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn new(positions: Vec<f64>, velocities: Vec<f64>) -> Self {
        assert_eq!(
            positions.len(),
            velocities.len(),
            "positions and velocities must have the same length"
        );
        JointState { positions, velocities }
    }

    /// Creates a stationary state at the given positions.
    pub fn at_rest(positions: Vec<f64>) -> Self {
        let velocities = vec![0.0; positions.len()];
        JointState { positions, velocities }
    }

    /// Number of degrees of freedom.
    pub fn dof(&self) -> usize {
        self.positions.len()
    }

    /// Kinetic-energy-free check: `true` when all velocities are (near) zero.
    pub fn is_at_rest(&self, tol: f64) -> bool {
        self.velocities.iter().all(|v| v.abs() <= tol)
    }
}

/// The Cartesian (task-space) state of the end-effector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndEffectorState {
    /// Pose of the end-effector in the base frame.
    pub pose: SE3,
    /// Linear velocity (m/s) in the base frame.
    pub linear_velocity: Vec3,
    /// Angular velocity (rad/s) in the base frame.
    pub angular_velocity: Vec3,
}

impl Default for EndEffectorState {
    fn default() -> Self {
        EndEffectorState {
            pose: SE3::identity(),
            linear_velocity: Vec3::ZERO,
            angular_velocity: Vec3::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_matching_lengths() {
        let s = JointState::zeros(7);
        assert_eq!(s.dof(), 7);
        assert!(s.is_at_rest(0.0));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = JointState::new(vec![0.0; 3], vec![0.0; 2]);
    }

    #[test]
    fn at_rest_constructor() {
        let s = JointState::at_rest(vec![0.1, 0.2]);
        assert_eq!(s.velocities, vec![0.0, 0.0]);
        assert!(s.is_at_rest(1e-12));
    }

    #[test]
    fn is_at_rest_tolerance() {
        let mut s = JointState::zeros(2);
        s.velocities[1] = 1e-3;
        assert!(!s.is_at_rest(1e-6));
        assert!(s.is_at_rest(1e-2));
    }
}
